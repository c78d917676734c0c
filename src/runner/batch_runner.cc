#include "runner/batch_runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "profile/profile.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "runner/watchdog.hh"
#include "sim/system.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "workloads/source.hh"

namespace darco::runner {

namespace {

/** Append a pin-mismatch line for every field that diverged. */
void
diffPins(const char *label, const trace::TracePins &pins,
         const JobResult &r, std::string &error)
{
    const tol::TolStats &ts = r.snapshot.tolStats;
    auto check = [&](const char *what, uint64_t got, uint64_t want) {
        if (got != want) {
            error += strprintf(
                "%s pin mismatch: %s %llu != pinned %llu\n", label,
                what, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
        }
    };
    check("guest_retired", r.snapshot.result.guestRetired,
          pins.guestRetired);
    check("sim_cycles", r.snapshot.result.cycles, pins.simCycles);
    check("host_records", r.snapshot.stats.records, pins.hostRecords);
    // timing_core is a determinism field too (check_perf.py): a
    // replay that advanced time on a different core than the
    // capture is not the same experiment, even if the counters
    // happen to agree.
    if (!pins.timingCore.empty() &&
        r.snapshot.timingCore != pins.timingCore) {
        error += strprintf(
            "%s pin mismatch: timing_core %s != pinned %s\n", label,
            r.snapshot.timingCore.c_str(), pins.timingCore.c_str());
    }
    check("dyn_im", ts.dynIm, pins.dynIm);
    check("dyn_bbm", ts.dynBbm, pins.dynBbm);
    check("dyn_sbm", ts.dynSbm, pins.dynSbm);
    check("bbs_translated", ts.bbsTranslated, pins.bbsTranslated);
    check("sbs_created", ts.sbsCreated, pins.sbsCreated);
    check("guest_indirect_branches", ts.guestIndirectBranches,
          pins.guestIndirectBranches);
}

/** Per-batch execution services shared by every worker. */
struct ExecContext
{
    Watchdog *watchdog = nullptr;
    uint64_t timeoutMs = 0;
};

/** A job's effective configuration and the fingerprint naming it. */
struct Effective
{
    sim::MetricsOptions options;
    uint64_t fingerprint = 0;
};

/**
 * The one derivation of a job's effective options over its resolved
 * workload: recipe, then explicit per-job overrides, mirroring
 * run_benchmark's single-workload semantics (the recipe supplies
 * defaults, the command line wins), then the config fingerprint.
 * The execute path, the cache lookup and the dedup pre-pass all call
 * this, so they cannot disagree on what "the same job" means.
 */
Effective
effectiveConfig(const BatchJob &job, const workloads::Workload &workload)
{
    Effective e;
    e.options = job.options;
    sim::applyCaptureRecipe(e.options, workload);
    if (job.guestBudgetOverride)
        e.options.guestBudget = *job.guestBudgetOverride;
    if (job.sbThresholdOverride)
        e.options.tolConfig.bbToSbThreshold = *job.sbThresholdOverride;
    e.fingerprint = configFingerprint(e.options, job.workload,
                                      job.requireHalt);
    return e;
}

/**
 * A job's resolved identity and effective configuration — the part
 * of execution that defines the experiment without running it.
 */
struct PreparedJob
{
    workloads::Workload workload;
    Effective effective;
};

/**
 * Resolve the workload and derive the effective configuration. May
 * fatal-throw (unknown scheme, unreadable trace) — callers hold a
 * ScopedFatalThrow.
 */
PreparedJob
prepareJob(const BatchJob &job)
{
    PreparedJob p;
    p.workload = workloads::resolveWorkload(job.workload);
    p.effective = effectiveConfig(job, p.workload);
    return p;
}

/**
 * Capture jobs never touch the result cache: their product is the
 * trace file, which the cache does not carry, so they always run and
 * rewrite it. Isolation-pipe jobs are cached like any other — the
 * snapshot carries all three optional PipeStats and the fingerprint
 * hashes all three pipe flags.
 */
bool
cacheBypass(const BatchJob &job)
{
    return !job.options.captureTracePath.empty();
}

/**
 * Deterministic verify-hits selection: a splitmix64-style mix of the
 * config fingerprint mapped to [0,1) and compared against the
 * fraction. A pure function of the job — no RNG, no clock — so the
 * audited subset is identical on every machine and every re-run.
 */
bool
selectedForVerify(uint64_t fingerprint, double fraction)
{
    if (fraction <= 0.0)
        return false;
    if (fraction >= 1.0)
        return true;
    uint64_t z = fingerprint + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53 < fraction;
}

/**
 * Full bit-identity comparison of two snapshots, one line per
 * divergence (empty = identical). The same currency the
 * parallel-vs-serial and kill-and-resume gates trade in.
 */
std::string
diffSnapshots(const sim::RunSnapshot &fresh,
              const sim::RunSnapshot &cached)
{
    std::string diff;
    auto field = [&](const char *what, uint64_t got, uint64_t want) {
        if (got != want) {
            diff += strprintf("%s %llu != cached %llu\n", what,
                              static_cast<unsigned long long>(got),
                              static_cast<unsigned long long>(want));
        }
    };
    field("guest_retired", fresh.result.guestRetired,
          cached.result.guestRetired);
    field("halted", fresh.result.halted, cached.result.halted);
    field("sim_cycles", fresh.result.cycles, cached.result.cycles);
    if (fresh.timingCore != cached.timingCore) {
        diff += strprintf("timing_core %s != cached %s\n",
                          fresh.timingCore.c_str(),
                          cached.timingCore.c_str());
    }
    diff += timing::diffStats(fresh.stats, cached.stats);
    auto pipe = [&](const char *what,
                    const std::optional<timing::PipeStats> &a,
                    const std::optional<timing::PipeStats> &b) {
        if (a.has_value() != b.has_value())
            diff += strprintf("%s presence differs\n", what);
        else if (a)
            diff += timing::diffStats(*a, *b);
    };
    pipe("tol_only", fresh.tolOnly, cached.tolOnly);
    pipe("app_only", fresh.appOnly, cached.appOnly);
    pipe("tol_module", fresh.tolModule, cached.tolModule);
    diff += tol::diffTolStats(fresh.tolStats, cached.tolStats);
    if (fresh.profile.has_value() != cached.profile.has_value())
        diff += "profile presence differs\n";
    else if (fresh.profile)
        diff += profile::diffProfiles(*fresh.profile, *cached.profile);
    return diff;
}

/**
 * Run one attempt of one job start to finish on the calling thread.
 * Everything a job touches is job-local (its own System, memories,
 * pipelines, cancel token); the only shared services are the
 * workload registry, the logging switches, and the watchdog — all
 * thread-safe (docs/concurrency.md).
 */
JobResult
executeAttempt(const BatchJob &job, const ExecContext &ctx)
{
    JobResult r;
    // Identity up front, so a job that fails before (or during)
    // resolution still reports which workload it was.
    r.uri = job.workload;
    // fatal() anywhere below (unknown scheme, unreadable trace, bad
    // config) becomes a FatalError we classify into the taxonomy.
    ScopedFatalThrow fatal_throws;
    // Outlives the WatchdogArm scope below, as Watchdog requires.
    common::CancelToken token;
    try {
        PreparedJob prep = prepareJob(job);
        const workloads::Workload &workload = prep.workload;
        r.name = workload.name;
        r.suite = workload.suite;
        r.uri = workload.uri;
        // Fingerprint before wiring the cancel token: the token is
        // runtime plumbing, not part of the experiment definition.
        r.fingerprint = prep.effective.fingerprint;
        if (ctx.timeoutMs)
            prep.effective.options.cancel = &token;
        const sim::SimConfig cfg =
            sim::configFromOptions(prep.effective.options);

        WatchdogArm deadline(ctx.watchdog, &token, ctx.timeoutMs);
        sim::System sys(cfg);
        sys.load(workload);
        const sim::SystemResult res = sys.run();
        deadline.fired();  // disarm before any post-run work

        r.snapshot = sim::snapshotFromSystem(sys, res);
        r.metrics = sim::collectMetrics(r.snapshot, workload.name,
                                        workload.suite);

        if (res.cancelled) {
            r.runError = {sim::RunErrorClass::Timeout, r.uri,
                          strprintf("wall-clock deadline of %llu ms "
                                    "exceeded; cancelled after %llu "
                                    "guest instructions (partial "
                                    "metrics retained)",
                                    static_cast<unsigned long long>(
                                        ctx.timeoutMs),
                                    static_cast<unsigned long long>(
                                        res.guestRetired))};
            r.error = r.runError.describe();
            return r;
        }
        if (job.requireHalt && !res.halted) {
            r.runError = {sim::RunErrorClass::BudgetExhausted, r.uri,
                          strprintf("guest did not reach HALT within "
                                    "the %llu-instruction budget",
                                    static_cast<unsigned long long>(
                                        cfg.guestBudget))};
            r.error = r.runError.describe();
            return r;
        }

        if (job.checkCapturedPins && workload.capturedPins)
            diffPins("capture", *workload.capturedPins, r, r.error);
        if (job.expectedPins)
            diffPins("expected", *job.expectedPins, r, r.error);
        if (!r.error.empty()) {
            // A determinism violation on intact inputs is an engine
            // defect: permanent, never retried.
            r.runError = {sim::RunErrorClass::Internal, r.uri,
                          r.error};
        }
        r.ok = r.error.empty();
    } catch (const FatalError &e) {
        r.ok = false;
        r.error = e.what();
        r.runError = sim::runErrorFromFatal(e, r.uri);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
        r.runError = {sim::RunErrorClass::Internal, r.uri, e.what()};
    }
    return r;
}

/** executeAttempt plus the transient-failure retry loop. */
JobResult
executeJob(const BatchJob &job, const ExecContext &ctx,
           const BatchConfig &cfg)
{
    const auto start = std::chrono::steady_clock::now();
    JobResult r;
    uint64_t backoff_total = 0;
    for (unsigned attempt = 0;; ++attempt) {
        // From scratch every time: a retried attempt builds a fresh
        // System from the same (workload, options) pair, so its
        // numbers are bit-identical to a first-try success — retry
        // changes whether a result exists, never what it measures.
        r = executeAttempt(job, ctx);
        r.attempts = attempt + 1;
        if (r.ok || !r.runError.transient() || attempt >= cfg.retries)
            break;
        // The schedule is deterministic (attempt-indexed, no clock
        // reads, no jitter); only the sleeps themselves touch time.
        const uint64_t delay =
            backoffDelayMs(cfg.backoffBaseMs, attempt);
        backoff_total += delay;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay));
    }
    r.backoffMsApplied = backoff_total;
    r.durationMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return r;
}

/**
 * Try to satisfy @p job from the result cache. A valid, pin-clean
 * hit returns a complete result without simulating; verify-hits mode
 * may additionally re-simulate and either bless the hit or fail the
 * job. nullopt = miss (absent, damaged, identity mismatch, stale
 * pins, or resolution failure) — the caller simulates.
 */
std::optional<JobResult>
tryCacheHit(const BatchJob &job, ResultCache &cache,
            const ExecContext &ctx, const BatchConfig &cfg)
{
    ScopedFatalThrow fatal_throws;
    try {
        const PreparedJob prep = prepareJob(job);
        const CacheKey key{prep.workload.uri, prep.effective.fingerprint,
                           std::string(kJournalEngineVersion)};
        std::optional<sim::RunSnapshot> snap = cache.lookup(key);
        if (!snap)
            return std::nullopt;

        JobResult r;
        r.name = prep.workload.name;
        r.suite = prep.workload.suite;
        r.uri = prep.workload.uri;
        r.snapshot = std::move(*snap);
        r.fingerprint = prep.effective.fingerprint;
        r.cacheStatus = CacheStatus::Hit;
        r.attempts = 0;

        // Pins re-verified against the current workload resolution:
        // a trace whose in-file pins changed since the entry was
        // stored invalidates the cached result.
        std::string pin_error;
        if (job.checkCapturedPins && prep.workload.capturedPins) {
            diffPins("capture", *prep.workload.capturedPins, r,
                     pin_error);
        }
        if (job.expectedPins)
            diffPins("expected", *job.expectedPins, r, pin_error);
        if (!pin_error.empty()) {
            warn("result cache: %s: cached result no longer matches "
                 "pins; re-simulating:\n%s",
                 job.workload.c_str(), pin_error.c_str());
            return std::nullopt;
        }

        if (selectedForVerify(prep.effective.fingerprint,
                              cfg.verifyHitFraction)) {
            const JobResult fresh = executeJob(job, ctx, cfg);
            r.attempts = fresh.attempts;
            r.durationMs = fresh.durationMs;
            std::string diff;
            if (!fresh.ok)
                diff = "fresh run failed: " + fresh.error;
            else
                diff = diffSnapshots(fresh.snapshot, r.snapshot);
            if (!diff.empty()) {
                // Either the cache or the engine broke determinism;
                // both poison the campaign. Hard-fail the job —
                // permanent, never retried.
                r.ok = false;
                r.error = strprintf(
                    "verify-hits: cached snapshot for '%s' diverges "
                    "from fresh simulation:\n%s",
                    job.workload.c_str(), diff.c_str());
                r.runError = {sim::RunErrorClass::Internal, r.uri,
                              r.error};
                return r;
            }
            r.verifiedHit = true;
        }

        r.metrics = sim::collectMetrics(r.snapshot,
                                        prep.workload.name,
                                        prep.workload.suite);
        r.ok = true;
        return r;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/**
 * One dedup group: jobs whose effective config fingerprints are
 * identical. The lowest index is the leader; FIFO dispatch claims it
 * before any follower, so a follower blocking on the leader's
 * completion can never deadlock the pool.
 */
struct DedupGroup
{
    size_t leader = 0;
    /** Resolved once in the pre-pass; every member resolves to the
     *  same workload (same workload string). */
    workloads::Workload workload;

    void
    markDone()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            done = true;
        }
        cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return done; });
    }

  private:
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
};

/**
 * Build a follower's result from its dedup leader's successful run.
 * The engine is deterministic, so the leader's snapshot IS what a
 * fresh run of this slot would produce — metrics are recomputed (a
 * pure function of the snapshot) and the follower's OWN pin
 * expectations are re-applied, so a per-slot pin mismatch fails this
 * slot exactly as a fresh run would have.
 */
JobResult
fanOutResult(const BatchJob &job, const workloads::Workload &workload,
             const JobResult &lead)
{
    JobResult r;
    r.name = workload.name;
    r.suite = workload.suite;
    r.uri = workload.uri;
    r.snapshot = lead.snapshot;
    r.fingerprint = lead.fingerprint;
    r.deduped = true;
    r.attempts = 0;

    std::string pin_error;
    if (job.checkCapturedPins && workload.capturedPins)
        diffPins("capture", *workload.capturedPins, r, pin_error);
    if (job.expectedPins)
        diffPins("expected", *job.expectedPins, r, pin_error);
    if (!pin_error.empty()) {
        r.error = pin_error;
        r.runError = {sim::RunErrorClass::Internal, r.uri, pin_error};
        return r;
    }
    r.metrics = sim::collectMetrics(r.snapshot, workload.name,
                                    workload.suite);
    r.ok = true;
    return r;
}

} // namespace

BatchRunner::BatchRunner(BatchConfig config) : cfg(std::move(config)) {}

unsigned
BatchRunner::effectiveWorkers(size_t jobCount) const
{
    unsigned workers = cfg.workers;
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    if (workers == 0)
        workers = 1;
    if (jobCount < workers)
        workers = static_cast<unsigned>(jobCount);
    return workers;
}

std::vector<JobResult>
BatchRunner::run(const std::vector<BatchJob> &jobs) const
{
    fatal_if(cfg.shard.count == 0,
             "batch runner: shard count must be >= 1");
    fatal_if(cfg.shard.index >= cfg.shard.count,
             "batch runner: shard index %u out of range for %u "
             "shard(s)",
             cfg.shard.index, cfg.shard.count);

    // Two jobs capturing to one path would interleave writes into the
    // same trace file; that is a batch-construction error, caught
    // before any work starts (checked batch-wide, not per shard: two
    // shards of one campaign racing on a path is the same error).
    std::set<std::string> capture_paths;
    for (const BatchJob &job : jobs) {
        if (job.options.captureTracePath.empty())
            continue;
        fatal_if(!capture_paths.insert(job.options.captureTracePath)
                      .second,
                 "batch runner: two jobs capture to '%s'",
                 job.options.captureTracePath.c_str());
    }

    std::vector<JobResult> results(jobs.size());

    // Stable job-index partition: slots outside this shard are marked
    // and never executed, cached or reported.
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i % cfg.shard.count != cfg.shard.index)
            results[i].skipped = true;
    }

    std::unique_ptr<ResultCache> cache;
    if (!cfg.cacheDir.empty())
        cache = std::make_unique<ResultCache>(cfg.cacheDir);

    // Dedup pre-pass: group the jobs of this shard by effective
    // config fingerprint. Only workload strings appearing more than
    // once can collide (the fingerprint folds the workload string
    // in), so resolution — which may read a trace header — is
    // paid only for duplicated workloads. A group whose resolution
    // fails is left ungrouped: the execute path reports the failure
    // per job with its proper classification.
    std::vector<std::shared_ptr<DedupGroup>> group_of(jobs.size());
    {
        std::unordered_map<std::string, std::vector<size_t>>
            by_workload;
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (results[i].skipped)
                continue;
            // Capture jobs are never deduped: each must actually run
            // to produce its capture file.
            if (!jobs[i].options.captureTracePath.empty())
                continue;
            by_workload[jobs[i].workload].push_back(i);
        }
        for (auto &[wl, members] : by_workload) {
            if (members.size() < 2)
                continue;
            ScopedFatalThrow fatal_throws;
            try {
                const workloads::Workload workload =
                    workloads::resolveWorkload(wl);
                std::unordered_map<uint64_t, std::vector<size_t>>
                    by_fp;
                for (const size_t i : members) {
                    by_fp[effectiveConfig(jobs[i], workload).fingerprint]
                        .push_back(i);
                }
                for (auto &[fp, dup] : by_fp) {
                    if (dup.size() < 2)
                        continue;
                    auto grp = std::make_shared<DedupGroup>();
                    grp->leader = dup.front();  // lowest index
                    grp->workload = workload;
                    for (const size_t i : dup)
                        group_of[i] = grp;
                }
            } catch (const std::exception &) {
                // fall through: members run (and fail) individually
            }
        }
    }

    const unsigned workers = effectiveWorkers(jobs.size());
    std::optional<Watchdog> watchdog;
    if (cfg.timeoutMs > 0)
        watchdog.emplace();
    const ExecContext ctx{watchdog ? &*watchdog : nullptr,
                          cfg.timeoutMs};

    // Cache-aware execution of one job on the calling thread:
    // lookup-before-simulate, store-after-miss. A store that fails
    // only warns (runner/result_cache.hh, crash contract).
    auto run_one = [&](const BatchJob &job) -> JobResult {
        if (!cache)
            return executeJob(job, ctx, cfg);
        if (cacheBypass(job)) {
            JobResult r = executeJob(job, ctx, cfg);
            r.cacheStatus = CacheStatus::Bypass;
            return r;
        }
        if (std::optional<JobResult> hit =
                tryCacheHit(job, *cache, ctx, cfg)) {
            return std::move(*hit);
        }
        JobResult r = executeJob(job, ctx, cfg);
        r.cacheStatus = CacheStatus::Miss;
        if (r.ok) {
            cache->store({r.uri, r.fingerprint,
                          std::string(kJournalEngineVersion)},
                         r.snapshot);
        }
        return r;
    };

    // FIFO dispatch, no stealing: the cursor hands each worker the
    // lowest unclaimed job index; each worker writes only its own
    // result slots, so the vector needs no lock.
    std::atomic<size_t> cursor{0};
    std::mutex done_mutex;
    auto drain = [&] {
        for (;;) {
            const size_t index =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (index >= jobs.size())
                return;
            if (results[index].skipped)
                continue;
            const BatchJob &job = jobs[index];
            const std::shared_ptr<DedupGroup> &grp = group_of[index];

            JobResult r;
            if (grp && grp->leader != index) {
                // Follower: wait for the leader (claimed earlier by
                // FIFO order) and fan its snapshot out. A failed
                // leader fans nothing — the follower runs normally
                // so its slot carries its own classified error.
                grp->wait();
                const JobResult &lead = results[grp->leader];
                if (lead.ok)
                    r = fanOutResult(job, grp->workload, lead);
                else
                    r = run_one(job);
            } else {
                r = run_one(job);
            }
            results[index] = std::move(r);
            if (grp && grp->leader == index)
                grp->markDone();

            if (cfg.onJobDone) {
                std::lock_guard<std::mutex> lock(done_mutex);
                cfg.onJobDone(index, results[index]);
            }
        }
    };

    if (workers <= 1) {
        // Serial reference path: same executeJob, calling thread.
        drain();
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(drain);
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace darco::runner
