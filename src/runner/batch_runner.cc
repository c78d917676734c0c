#include "runner/batch_runner.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/logging.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "runner/watchdog.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

namespace darco::runner {

namespace {

/**
 * Every mismatch of @p r against the workload's in-file capture pins
 * (when the job checks them).
 */
std::string
pinMismatches(const BatchJob &job, const workloads::Workload &workload,
              const JobResult &r)
{
    if (!job.checkCapturedPins || !workload.capturedPins)
        return "";
    return trace::diffPins("capture", sim::measuredPins(r.snapshot),
                           *workload.capturedPins);
}

/** Per-batch execution services shared by every worker. */
struct ExecContext
{
    Watchdog *watchdog = nullptr;
    uint64_t timeoutMs = 0;
};

/**
 * A job's resolved identity, effective options and the config
 * fingerprint naming them — the part of execution that defines the
 * experiment without running it.
 */
struct PreparedJob
{
    workloads::Workload workload;
    sim::MetricsOptions options;
    uint64_t fingerprint = 0;
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
    p.options = effectiveOptions(job, p.workload);
    p.fingerprint = configFingerprint(p.options, job.workload,
                                      job.requireHalt);
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
        r.fingerprint = prep.fingerprint;
        if (ctx.timeoutMs)
            prep.options.cancel = &token;
        const sim::SimConfig cfg = sim::configFromOptions(prep.options);

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

        r.error += pinMismatches(job, workload, r);
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
        const CacheKey key{prep.workload.uri, prep.fingerprint,
                           std::string(kJournalEngineVersion)};
        std::optional<sim::RunSnapshot> snap = cache.lookup(key);
        if (!snap)
            return std::nullopt;

        JobResult r;
        r.name = prep.workload.name;
        r.suite = prep.workload.suite;
        r.uri = prep.workload.uri;
        r.snapshot = std::move(*snap);
        r.fingerprint = prep.fingerprint;
        r.cacheStatus = CacheStatus::Hit;
        r.attempts = 0;

        // Pins re-verified against the current workload resolution:
        // a trace whose in-file pins changed since the entry was
        // stored invalidates the cached result.
        const std::string pin_error =
            pinMismatches(job, prep.workload, r);
        if (!pin_error.empty()) {
            warn("result cache: %s: cached result no longer matches "
                 "pins; re-simulating:\n%s",
                 job.workload.c_str(), pin_error.c_str());
            return std::nullopt;
        }

        if (selectedForVerify(prep.fingerprint, cfg.verifyHitFraction)) {
            const JobResult fresh = executeJob(job, ctx, cfg);
            r.attempts = fresh.attempts;
            r.durationMs = fresh.durationMs;
            std::string diff;
            if (!fresh.ok)
                diff = "fresh run failed: " + fresh.error;
            else
                diff = sim::diffRunSnapshots(fresh.snapshot, r.snapshot);
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

} // namespace

sim::MetricsOptions
effectiveOptions(const BatchJob &job, const workloads::Workload &workload)
{
    sim::MetricsOptions options = job.options;
    sim::applyCaptureRecipe(options, workload);
    if (job.guestBudgetOverride)
        options.guestBudget = *job.guestBudgetOverride;
    if (job.sbThresholdOverride)
        options.tolConfig.bbToSbThreshold = *job.sbThresholdOverride;
    return options;
}

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

    const unsigned workers = effectiveWorkers(jobs.size());
    std::optional<Watchdog> watchdog;
    if (cfg.timeoutMs > 0)
        watchdog.emplace();
    const ExecContext ctx{watchdog ? &*watchdog : nullptr,
                          cfg.timeoutMs};

    // The one path of every in-shard slot, on the calling thread:
    // cache lookup, then simulate (unless requireHits forbids it),
    // then store. Jobs that share a
    // fingerprint each take it; two workers storing one key is safe
    // (atomic rename, runner/result_cache.hh), and a store that fails
    // only warns (crash contract).
    auto run_one = [&](const BatchJob &job) -> JobResult {
        if (!cache)
            return executeJob(job, ctx, cfg);
        const bool bypass = cacheBypass(job);
        if (!bypass) {
            if (std::optional<JobResult> hit =
                    tryCacheHit(job, *cache, ctx, cfg)) {
                return std::move(*hit);
            }
        }
        if (cfg.requireHits) {
            JobResult r;
            r.uri = job.workload;
            r.cacheStatus = bypass ? CacheStatus::Bypass : CacheStatus::Miss;
            r.runError = {sim::RunErrorClass::Internal, r.uri,
                          "require-hits: the result cache did not "
                          "serve this job"};
            r.error = r.runError.describe();
            return r;
        }
        if (bypass) {
            JobResult r = executeJob(job, ctx, cfg);
            r.cacheStatus = CacheStatus::Bypass;
            return r;
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
            results[index] = run_one(jobs[index]);
            if (cfg.onJobDone) {
                std::lock_guard<std::mutex> lock(done_mutex);
                cfg.onJobDone(index, results[index]);
            }
        }
    };

    if (workers <= 1) {
        // One worker: the same drain loop, on the calling thread.
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
