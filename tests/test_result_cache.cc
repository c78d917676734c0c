/**
 * @file
 * Campaign scale-out gates (docs/campaigns.md): the snapshot codec
 * round-trips bit-exactly, a warm re-run of an identical campaign
 * performs zero simulations with every slot bit-identical to the
 * cold run, shards partition a batch exactly once and share a cache,
 * every component of the cache key invalidates, damaged entries are
 * rejected structurally and re-simulated, duplicate jobs in one batch
 * each simulate or hit and leave one entry per key (also when stored
 * concurrently), sim::diffRunSnapshots names every component that
 * diverges, verify-hits blesses honest entries and hard-fails forged
 * ones, require-hits fails every job a cold cache cannot serve and
 * passes a warm one, capture jobs always bypass
 * the cache while isolation jobs are cached with all three optional
 * pipes, and a store that fails (full disk) leaves no file, keeps the
 * job ok and costs only a re-simulation on the next run.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign_util.hh"
#include "runner/batch_runner.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "runner/snapshot_codec.hh"
#include "sim/metrics.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "trace/trace.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

using namespace darco;
using namespace darco::testutil;

namespace {

std::string
readFile(const std::string &path)
{
    std::string data;
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return data;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, got);
    std::fclose(f);
    return data;
}

void
writeFile(const std::string &path, const std::string &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
}

/** A small campaign over the first @p count synthetic benchmarks. */
std::vector<runner::BatchJob>
smallCampaign(size_t count, uint64_t budget = 40'000)
{
    const auto &all = workloads::allBenchmarks();
    std::vector<runner::BatchJob> jobs;
    for (size_t i = 0; i < count && i < all.size(); ++i) {
        jobs.push_back(makeJob(workloads::syntheticUri(all[i].name),
                               smallOptions(budget)));
    }
    return jobs;
}

std::vector<runner::JobResult>
runBatch(const std::vector<runner::BatchJob> &jobs,
         runner::BatchConfig config = {})
{
    return runner::BatchRunner(std::move(config)).run(jobs);
}

} // namespace

// ---------------------------------------------------------------------
// Snapshot codec: round-trip and envelope authentication.
// ---------------------------------------------------------------------

namespace {

/** A synthetic snapshot exercising every serialized component. */
sim::RunSnapshot
denseSnapshot()
{
    sim::RunSnapshot snap;
    snap.result.guestRetired = 123'456;
    snap.result.cycles = 987'654;
    snap.result.halted = true;
    snap.timingCore = "event";
    snap.stats.records = 42;
    snap.stats.cycles = 987'654;
    timing::PipeStats tol_only;
    tol_only.records = 7;
    snap.tolOnly = tol_only;
    snap.tolStats.dynIm = 11;
    snap.tolStats.dynBbm = 22;
    snap.tolStats.dynSbm = 33;
    snap.tolStats.guestIndirectBranches = 44;
    snap.tolStats.staticMode[0x1000] = 1;
    snap.tolStats.staticMode[0x2000] = 2;
    profile::RunProfile prof;
    prof.lineBytes = 64;
    prof.dataReuse.coldAccesses = 5;
    prof.dataReuse.counts[3] = 9;
    prof.dataReuse.counts[1000000007ull] = 2;  // beyond 32 bits
    prof.branches.dynBranches = 17;
    prof.branches.dynCondBranches = 13;
    prof.branches.mispredicts = 4;
    profile::BranchSite site;
    site.taken = 4;
    site.notTaken = 2;
    site.transitions = 3;
    site.mispredicts = 1;
    site.isCond = true;
    prof.branches.sites[0x1234] = site;
    site.isCond = false;
    site.isIndirect = true;
    prof.branches.sites[0xFFFFFFFC] = site;  // top of the address space
    snap.profile = prof;
    return snap;
}

} // namespace

TEST(SnapshotCodec, RoundTripsBitExactly)
{
    const sim::RunSnapshot snap = denseSnapshot();
    std::string body = "{\"probe\":1";
    runner::codec::appendSnapshotFields(body, snap);
    const std::string line = runner::codec::sealLine(body);

    ASSERT_TRUE(runner::codec::checksummedBody(line).has_value());
    sim::RunSnapshot back;
    ASSERT_TRUE(runner::codec::parseSnapshotFields(line, back));

    EXPECT_EQ(sim::diffRunSnapshots(back, snap), "");
    EXPECT_TRUE(back.profile == snap.profile);
}

TEST(SnapshotDiff, NamesEachComponent)
{
    // Every pipe present, so each one's counters can diverge too.
    sim::RunSnapshot base = denseSnapshot();
    base.appOnly = timing::PipeStats{};
    base.tolModule = timing::PipeStats{};
    ASSERT_EQ(sim::diffRunSnapshots(base, base), "");

    using Perturb = void (*)(sim::RunSnapshot &);
    const std::pair<const char *, Perturb> cases[] = {
        {"guest_retired: ",
         [](sim::RunSnapshot &s) { s.result.guestRetired += 1; }},
        {"halted: ", [](sim::RunSnapshot &s) { s.result.halted = false; }},
        {"sim_cycles: ", [](sim::RunSnapshot &s) { s.result.cycles += 1; }},
        {"timing_core: ",
         [](sim::RunSnapshot &s) { s.timingCore = "reference"; }},
        {"combined.l1d.misses: ",
         [](sim::RunSnapshot &s) { s.stats.l1d.misses += 1; }},
        {"tol_only: presence differs",
         [](sim::RunSnapshot &s) { s.tolOnly.reset(); }},
        {"tol_only.records: ",
         [](sim::RunSnapshot &s) { s.tolOnly->records += 1; }},
        {"app_only: presence differs",
         [](sim::RunSnapshot &s) { s.appOnly.reset(); }},
        {"app_only.bp.mispredicts: ",
         [](sim::RunSnapshot &s) { s.appOnly->bp.mispredicts += 1; }},
        {"tol_module: presence differs",
         [](sim::RunSnapshot &s) { s.tolModule.reset(); }},
        {"tol_module.cycles: ",
         [](sim::RunSnapshot &s) { s.tolModule->cycles += 1; }},
        {"tol.dynSbm: ", [](sim::RunSnapshot &s) { s.tolStats.dynSbm += 1; }},
        {"profile: presence differs",
         [](sim::RunSnapshot &s) { s.profile.reset(); }},
        {"profile.dataReuse.coldAccesses: ",
         [](sim::RunSnapshot &s) { s.profile->dataReuse.coldAccesses += 1; }},
    };
    for (const auto &[component, perturb] : cases) {
        SCOPED_TRACE(component);
        sim::RunSnapshot other = base;
        perturb(other);
        const std::string diff = sim::diffRunSnapshots(base, other);
        EXPECT_NE(diff.find(component), std::string::npos) << diff;
    }

    // Which host-side path retired the cycles is not part of the
    // modeled machine (the timing::diffStats contract).
    sim::RunSnapshot burst = base;
    burst.stats.burstCycles += 5;
    burst.tolOnly->burstCycles += 5;
    EXPECT_EQ(sim::diffRunSnapshots(base, burst), "");
}

TEST(SnapshotCodec, TamperedEnvelopeFailsAuthentication)
{
    std::string body = "{\"probe\":1";
    runner::codec::appendSnapshotFields(body, denseSnapshot());
    const std::string line = runner::codec::sealLine(body);

    // Flip one body character: authentication must fail.
    std::string tampered = line;
    tampered[line.find("guest_retired") + 20] ^= 1;
    EXPECT_FALSE(runner::codec::checksummedBody(tampered).has_value());
    // Truncation (torn write) must fail too.
    EXPECT_FALSE(runner::codec::checksummedBody(
                     line.substr(0, line.size() / 2)).has_value());
    // The intact line still authenticates.
    EXPECT_TRUE(runner::codec::checksummedBody(line).has_value());
}

// ---------------------------------------------------------------------
// The headline contract: a warm re-run simulates nothing and is
// bit-identical to the cold run.
// ---------------------------------------------------------------------

TEST(ResultCache, WarmRerunHitsEverythingBitIdentically)
{
    const std::string dir =
        freshCacheDir("result_cache_warm_rerun");
    const std::vector<runner::BatchJob> jobs = smallCampaign(6);

    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    for (const runner::JobResult &r : cold) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Miss);
        EXPECT_GE(r.attempts, 1u);
    }
    EXPECT_EQ(countEntries(dir), jobs.size());

    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    for (const runner::JobResult &r : warm) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
        // Zero simulations: a hit never executes.
        EXPECT_EQ(r.attempts, 0u);
    }
    expectIdenticalSlots(warm, cold);

    // The cache is also bit-identical to a run that never saw a
    // cache at all.
    expectIdenticalSlots(warm, runBatch(jobs));
}

// ---------------------------------------------------------------------
// Sharding: a stable job-index partition sharing one cache.
// ---------------------------------------------------------------------

TEST(Sharding, ShardsPartitionExactlyOnceAndShareTheCache)
{
    const std::string dir = freshCacheDir("result_cache_shards");
    const std::vector<runner::BatchJob> jobs = smallCampaign(5);

    for (unsigned k = 0; k < 2; ++k) {
        runner::BatchConfig config;
        config.cacheDir = dir;
        config.shard = {k, 2};
        const std::vector<runner::JobResult> part =
            runBatch(jobs, config);
        for (size_t i = 0; i < part.size(); ++i) {
            SCOPED_TRACE(strprintf("shard %u job %zu", k, i));
            if (i % 2 == k) {
                EXPECT_FALSE(part[i].skipped);
                EXPECT_TRUE(part[i].ok) << part[i].error;
                EXPECT_EQ(part[i].cacheStatus,
                          runner::CacheStatus::Miss);
            } else {
                // Out-of-shard: untouched slot, not a failure.
                EXPECT_TRUE(part[i].skipped);
                EXPECT_FALSE(part[i].ok);
                EXPECT_TRUE(part[i].error.empty());
                EXPECT_EQ(part[i].attempts, 0u);
            }
        }
    }

    // The two shards covered the campaign exactly once; an unsharded
    // warm run over the shared cache simulates nothing and matches a
    // cache-free reference bit for bit.
    EXPECT_EQ(countEntries(dir), jobs.size());
    runner::BatchConfig warm_config;
    warm_config.cacheDir = dir;
    const std::vector<runner::JobResult> warm =
        runBatch(jobs, warm_config);
    for (const runner::JobResult &r : warm) {
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
        EXPECT_EQ(r.attempts, 0u);
    }
    expectIdenticalSlots(warm, runBatch(jobs));
}

// ---------------------------------------------------------------------
// Invalidation: every component of the key misses on change.
// ---------------------------------------------------------------------

TEST(Invalidation, EngineVersionBumpMisses)
{
    const std::string dir = freshCacheDir("result_cache_engine");
    runner::ResultCache cache(dir);

    const sim::RunSnapshot snap = denseSnapshot();
    runner::CacheKey old_key{"source://synthetic/x", 0x1234,
                             "darco-engine-0"};
    ASSERT_TRUE(cache.store(old_key, snap));

    // Same workload, same fingerprint, current engine: miss.
    runner::CacheKey key = old_key;
    key.engine = runner::kJournalEngineVersion;
    EXPECT_FALSE(cache.lookup(key).has_value());
    // The old engine's entry is still addressable under its own key.
    EXPECT_TRUE(cache.lookup(old_key).has_value());
}

TEST(Invalidation, AnyOptionsChangeMisses)
{
    const std::string dir = freshCacheDir("result_cache_options");
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);

    runner::BatchConfig config;
    config.cacheDir = dir;
    ASSERT_TRUE(runBatch(jobs, config)[0].ok);

    // Every MetricsOptions field keys the fingerprint (generated
    // per-leaf check: Journal.EveryConfigLeafKeysTheFingerprint);
    // requireHalt is part of the experiment definition too.
    const std::string &wl = jobs[0].workload;
    const sim::MetricsOptions base = smallOptions(40'000);
    const uint64_t fp =
        runner::configFingerprint(base, wl, false);
    EXPECT_NE(runner::configFingerprint(base, wl, true), fp);

    // End to end: the changed-budget campaign misses.
    std::vector<runner::BatchJob> changed = jobs;
    changed[0].options.guestBudget = 50'000;
    const std::vector<runner::JobResult> rerun =
        runBatch(changed, config);
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
}

TEST(Invalidation, WorkloadIdentityChangeMisses)
{
    const std::string dir = freshCacheDir("result_cache_workload");
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> first =
        runBatch(smallCampaign(1), config);
    ASSERT_TRUE(first[0].ok);

    // A different benchmark under the same options: its own key,
    // never the first benchmark's entry.
    const auto &all = workloads::allBenchmarks();
    ASSERT_GE(all.size(), 2u);
    std::vector<runner::BatchJob> other;
    other.push_back(makeJob(workloads::syntheticUri(all[1].name),
                            smallOptions(40'000)));
    const std::vector<runner::JobResult> second =
        runBatch(other, config);
    EXPECT_EQ(second[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_NE(second[0].fingerprint, first[0].fingerprint);
}

// ---------------------------------------------------------------------
// Damaged entries: rejected structurally, re-simulated, replaced.
// ---------------------------------------------------------------------

namespace {

enum class Damage { Truncate, BitFlip, Torn };

void
damageAndRerun(Damage damage, const char *dir_name)
{
    const std::string dir = freshCacheDir(dir_name);
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok);

    runner::ResultCache cache(dir);
    const std::string path = cache.entryPath(keyFor(cold[0]));
    std::string data = readFile(path);
    ASSERT_FALSE(data.empty());
    switch (damage) {
      case Damage::Truncate:
        data.resize(data.size() / 3);
        break;
      case Damage::BitFlip:
        data[data.size() / 2] ^= 0x10;
        break;
      case Damage::Torn:
        // A torn concurrent write never happens through the atomic
        // rename path, but a crashed copy or a failing disk can
        // still produce one: half an entry, no newline.
        data = data.substr(0, data.size() / 2) + "\n";
        break;
    }
    writeFile(path, data);

    // The damaged entry is never returned: the job re-simulates
    // (miss), produces the same numbers, and replaces the entry.
    const std::vector<runner::JobResult> rerun =
        runBatch(jobs, config);
    EXPECT_TRUE(rerun[0].ok) << rerun[0].error;
    EXPECT_EQ(rerun[0].cacheStatus, runner::CacheStatus::Miss);
    EXPECT_GE(rerun[0].attempts, 1u);
    expectIdenticalSlots(rerun, cold);

    // The replacement entry is valid again.
    EXPECT_TRUE(cache.lookup(keyFor(cold[0])).has_value());
}

} // namespace

TEST(DamagedEntries, TruncatedEntryIsRejectedAndResimulated)
{
    damageAndRerun(Damage::Truncate, "result_cache_truncate");
}

TEST(DamagedEntries, BitFlippedEntryIsRejectedAndResimulated)
{
    damageAndRerun(Damage::BitFlip, "result_cache_bitflip");
}

TEST(DamagedEntries, TornEntryIsRejectedAndResimulated)
{
    damageAndRerun(Damage::Torn, "result_cache_torn");
}

// ---------------------------------------------------------------------
// Duplicate jobs: every slot takes the one execution path.
// ---------------------------------------------------------------------

TEST(DuplicateJobs, EachSimulatesAndStoresOneEntry)
{
    const auto &all = workloads::allBenchmarks();
    const std::string uri_a = workloads::syntheticUri(all[0].name);
    const std::string uri_b = workloads::syntheticUri(all[1].name);

    // Three copies of A, one B, then A at another budget (a different
    // fingerprint): three distinct cache keys.
    std::vector<runner::BatchJob> jobs;
    jobs.push_back(makeJob(uri_a, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_a, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_b, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_a, smallOptions(40'000)));
    jobs.push_back(makeJob(uri_a, smallOptions(60'000)));

    std::vector<runner::JobResult> independent;
    for (const runner::BatchJob &job : jobs) {
        independent.push_back(
            runBatch(std::vector<runner::BatchJob>{job})[0]);
    }

    // No cache: every slot simulates, bit-identical to running alone.
    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(strprintf("%u worker(s), no cache", workers));
        runner::BatchConfig config;
        config.workers = workers;
        const std::vector<runner::JobResult> got =
            runBatch(jobs, config);
        for (const runner::JobResult &r : got)
            EXPECT_GE(r.attempts, 1u) << r.uri;
        expectIdenticalSlots(got, independent);
    }

    // A cache at one worker: the first A copy stores, the later ones
    // find its entry.
    {
        const std::string dir = freshCacheDir("duplicate_jobs_serial");
        runner::BatchConfig config;
        config.workers = 1;
        config.cacheDir = dir;
        const std::vector<runner::JobResult> got =
            runBatch(jobs, config);
        EXPECT_EQ(got[0].cacheStatus, runner::CacheStatus::Miss);
        EXPECT_EQ(got[1].cacheStatus, runner::CacheStatus::Hit);
        EXPECT_EQ(got[2].cacheStatus, runner::CacheStatus::Miss);
        EXPECT_EQ(got[3].cacheStatus, runner::CacheStatus::Hit);
        EXPECT_EQ(got[4].cacheStatus, runner::CacheStatus::Miss);
        expectIdenticalSlots(got, independent);
        EXPECT_EQ(countEntries(dir), 3u);
    }

    // A cache at four workers: the A copies may miss together and
    // store one key concurrently. Each slot is still ok and
    // bit-identical, one entry per key lands, and no temp file is
    // left behind.
    const std::string dir = freshCacheDir("duplicate_jobs_parallel");
    runner::BatchConfig config;
    config.workers = 4;
    config.cacheDir = dir;
    expectIdenticalSlots(runBatch(jobs, config), independent);
    EXPECT_EQ(countEntries(dir), 3u);
    for (const std::string &file : listFiles(dir))
        EXPECT_EQ(file.find(".tmp."), std::string::npos) << file;

    // A warm re-run is served entirely from those entries.
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    for (const runner::JobResult &r : warm)
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit) << r.uri;
    expectIdenticalSlots(warm, independent);
}

// ---------------------------------------------------------------------
// Verify-hits: honest hits are blessed, forged hits hard-fail.
// ---------------------------------------------------------------------

TEST(VerifyHits, HonestHitsVerifyCleanly)
{
    const std::string dir = freshCacheDir("result_cache_verify_ok");
    const std::vector<runner::BatchJob> jobs = smallCampaign(3);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);

    config.verifyHitFraction = 1.0;
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    for (const runner::JobResult &r : warm) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
        EXPECT_TRUE(r.verifiedHit);
        // Verification re-simulates: attempts counts the audit run.
        EXPECT_GE(r.attempts, 1u);
    }
    expectIdenticalSlots(warm, cold);
}

TEST(VerifyHits, ForgedEntryHardFailsUnderVerification)
{
    const std::string dir =
        freshCacheDir("result_cache_verify_forged");
    const std::vector<runner::BatchJob> jobs = smallCampaign(1);
    runner::BatchConfig config;
    config.cacheDir = dir;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    ASSERT_TRUE(cold[0].ok);

    // Forge a checksummed, structurally valid entry whose cycles
    // differ by one — undetectable without re-simulation.
    runner::ResultCache cache(dir);
    sim::RunSnapshot forged = cold[0].snapshot;
    forged.result.cycles += 1;
    ASSERT_TRUE(cache.store(keyFor(cold[0]), forged));

    // Without verification the forged entry is returned: the cache
    // is trusted by design, which is exactly why verify-hits exists.
    const std::vector<runner::JobResult> trusting =
        runBatch(jobs, config);
    EXPECT_EQ(trusting[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_EQ(trusting[0].snapshot.result.cycles,
              forged.result.cycles);

    // With verification the divergence hard-fails the job.
    config.verifyHitFraction = 1.0;
    const std::vector<runner::JobResult> audited =
        runBatch(jobs, config);
    EXPECT_FALSE(audited[0].ok);
    EXPECT_EQ(audited[0].cacheStatus, runner::CacheStatus::Hit);
    EXPECT_FALSE(audited[0].verifiedHit);
    EXPECT_EQ(audited[0].runError.cls, sim::RunErrorClass::Internal);
    EXPECT_NE(audited[0].error.find("verify-hits"), std::string::npos);
}

// ---------------------------------------------------------------------
// Require-hits: a job the cache cannot serve fails without simulating.
// ---------------------------------------------------------------------

TEST(RequireHits, ColdCacheFailsEachJobAndWarmCachePasses)
{
    const std::string dir = freshCacheDir("result_cache_require_hits");
    const std::vector<runner::BatchJob> jobs = smallCampaign(3);
    runner::BatchConfig config;
    config.cacheDir = dir;
    config.requireHits = true;

    for (const runner::JobResult &r : runBatch(jobs, config)) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Miss);
        EXPECT_EQ(r.runError.cls, sim::RunErrorClass::Internal);
        EXPECT_NE(r.error.find("require-hits"), std::string::npos);
        // Refused, not simulated: nothing ran and nothing was stored.
        EXPECT_EQ(r.attempts, 0u);
    }
    EXPECT_EQ(countEntries(dir), 0u);

    config.requireHits = false;
    const std::vector<runner::JobResult> cold = runBatch(jobs, config);
    config.requireHits = true;
    const std::vector<runner::JobResult> warm = runBatch(jobs, config);
    for (const runner::JobResult &r : warm) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
    }
    expectIdenticalSlots(warm, cold);
}

// ---------------------------------------------------------------------
// Bypass: capture jobs never touch the cache; isolation jobs do.
// ---------------------------------------------------------------------

TEST(Bypass, CaptureJobsNeverUseTheCache)
{
    const std::string dir = freshCacheDir("result_cache_bypass");
    const std::string trace = tempPath("result_cache_bypass.dtrc");
    runner::BatchJob capture = makeJob(
        workloads::syntheticUri(workloads::allBenchmarks()[0].name),
        smallOptions(40'000));
    capture.options.captureTracePath = trace;

    runner::BatchConfig config;
    config.cacheDir = dir;
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(strprintf("pass %d", pass));
        // The capture file is the job's product: only a re-run can
        // regenerate it, so delete it and require it back.
        std::remove(trace.c_str());
        const runner::JobResult r = runBatch({capture}, config)[0];
        EXPECT_TRUE(r.ok) << r.error;
        // Always executed, never a hit — even on the warm pass.
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Bypass);
        EXPECT_GE(r.attempts, 1u);
        EXPECT_TRUE(trace::readTrace(trace).ok());
        // And never stored.
        EXPECT_EQ(countEntries(dir), 0u);
    }
}

TEST(Isolation, WarmRerunHitsBitIdenticallyWithAllThreePipes)
{
    const auto &all = workloads::allBenchmarks();
    sim::MetricsOptions isolated = smallOptions(40'000);
    isolated.tolOnlyPipe = true;
    isolated.appOnlyPipe = true;
    isolated.tolModulePipe = true;
    const std::vector<runner::BatchJob> jobs = {
        makeJob(workloads::syntheticUri(all[0].name), isolated),
        makeJob(workloads::syntheticUri(all[1].name), isolated),
    };
    const std::vector<runner::JobResult> reference = runBatch(jobs);
    for (const runner::JobResult &r : reference) {
        ASSERT_TRUE(r.snapshot.tolOnly.has_value());
        ASSERT_TRUE(r.snapshot.appOnly.has_value());
        ASSERT_TRUE(r.snapshot.tolModule.has_value());
    }

    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(strprintf("%u worker(s)", workers));
        runner::BatchConfig config;
        config.workers = workers;
        config.cacheDir = freshCacheDir(
            strprintf("result_cache_isolation_%u", workers));
        for (const runner::JobResult &r : runBatch(jobs, config))
            EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Miss);
        EXPECT_EQ(countEntries(config.cacheDir), jobs.size());

        const std::vector<runner::JobResult> warm =
            runBatch(jobs, config);
        for (const runner::JobResult &r : warm) {
            EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Hit);
            EXPECT_EQ(r.attempts, 0u);
        }
        expectIdenticalSlots(warm, reference);
    }
}

// ---------------------------------------------------------------------
// Store failures: loud, leave no file, never fail the job.
// ---------------------------------------------------------------------

namespace {

/**
 * Caps the size of any file this process writes (RLIMIT_FSIZE) for
 * its lifetime, with SIGXFSZ ignored so an oversized write fails
 * with EFBIG instead of killing the process — a full disk in
 * miniature. kCap is far below one entry but above a warning line
 * (gtest's stderr capture is a file too).
 */
constexpr rlim_t kCap = 512;

class FileSizeCap
{
  public:
    explicit FileSizeCap(rlim_t bytes)
    {
        EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
        std::signal(SIGXFSZ, SIG_IGN);
        struct rlimit capped = saved;
        capped.rlim_cur = bytes;
        EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
    }
    ~FileSizeCap()
    {
        setrlimit(RLIMIT_FSIZE, &saved);
        std::signal(SIGXFSZ, SIG_DFL);
    }
    FileSizeCap(const FileSizeCap &) = delete;
    FileSizeCap &operator=(const FileSizeCap &) = delete;

  private:
    struct rlimit saved{};
};

} // namespace

TEST(StoreFailure, FailedStoreWarnsAndLeavesNoFile)
{
    const std::string dir = freshCacheDir("result_cache_store_fail");
    runner::ResultCache cache(dir);
    const runner::CacheKey key{"source://synthetic/x", 0x1234,
                               runner::kJournalEngineVersion};
    bool stored = true;
    testing::internal::CaptureStderr();
    {
        FileSizeCap cap(kCap);
        stored = cache.store(key, denseSnapshot());
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(stored);
    EXPECT_NE(err.find("result cache: failed to publish"),
              std::string::npos) << err;
    // Neither the final name nor any temp name survives.
    EXPECT_TRUE(listFiles(dir).empty());
    EXPECT_FALSE(cache.lookup(key).has_value());

    // Uncapped, the same store lands — and is bigger than the cap,
    // so the capped write really did fail part-way.
    EXPECT_TRUE(cache.store(key, denseSnapshot()));
    EXPECT_TRUE(cache.lookup(key).has_value());
    EXPECT_GT(readFile(cache.entryPath(key)).size(), kCap);
}

TEST(StoreFailure, JobStaysOkAndTheNextRunSimulatesAgain)
{
    const std::string dir = freshCacheDir("result_cache_store_fail_job");
    const std::vector<runner::BatchJob> jobs = smallCampaign(2);
    runner::BatchConfig config;
    config.cacheDir = dir;

    std::vector<runner::JobResult> capped;
    {
        FileSizeCap cap(kCap);
        capped = runBatch(jobs, config);
    }
    for (const runner::JobResult &r : capped) {
        // The result is in memory; only its future reuse was lost.
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Miss);
    }
    EXPECT_TRUE(listFiles(dir).empty());

    // Nothing landed, so the next run misses and simulates again —
    // bit-identically — and this time the stores land.
    const std::vector<runner::JobResult> rerun = runBatch(jobs, config);
    for (const runner::JobResult &r : rerun) {
        EXPECT_EQ(r.cacheStatus, runner::CacheStatus::Miss);
        EXPECT_GE(r.attempts, 1u);
    }
    expectIdenticalSlots(rerun, capped);
    EXPECT_EQ(countEntries(dir), jobs.size());
}
