/**
 * @file
 * Shared harness for the figure-regeneration benches: argument
 * parsing (budget, suite filter, CSV output) and suite sweeps with
 * per-suite averages, matching the paper's figure layout (per-
 * benchmark bars in suite order followed by the four suite averages).
 */

#ifndef DARCO_BENCH_BENCH_UTIL_HH
#define DARCO_BENCH_BENCH_UTIL_HH

#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "runner/batch_runner.hh"
#include "runner/campaign_flags.hh"
#include "sim/metrics.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace darco::bench {

struct BenchArgs
{
    uint64_t budget = 4'000'000;
    std::string suite;      ///< empty = all suites
    std::string benchmark;  ///< empty = all benchmarks
    bool csv = false;
    /**
     * Campaign flags (runner/campaign_flags.hh): --jobs worker
     * threads (0, the default, = one per hardware thread; results
     * are bit-identical at any value, tests/test_batch_runner.cc),
     * the per-job watchdog and retries (docs/robustness.md), the
     * job-index shard, the result cache and verify-hits
     * (docs/campaigns.md). All but --jobs are off by default.
     */
    runner::BatchConfig campaign;

    /** The shared flags a bench accepts; each level adds to the last. */
    enum class Flags
    {
        /** --csv only: the bench runs fixed workloads at fixed
         *  budgets (engine_speed, table1_config). */
        Csv,
        /** Also --budget=, --suite=, --benchmark= and DARCO_BUDGET:
         *  a serial bench over selected workloads (fig_cfg). */
        Workloads,
        /** Also the campaign flags: a bench that runs through
         *  runJobs. */
        Campaign,
    };

    /**
     * Parse the shared bench arguments. A flag outside @p accepts is
     * rejected as an unknown argument, and a set DARCO_BUDGET is
     * rejected under Flags::Csv, rather than silently ignoring what
     * the bench cannot honour.
     */
    static BenchArgs
    parse(int argc, char **argv, Flags accepts = Flags::Campaign)
    {
        BenchArgs args;
        constexpr uint64_t kMaxBudget =
            std::numeric_limits<uint64_t>::max();
        const bool fixed = accepts == Flags::Csv;
        if (const char *env = std::getenv("DARCO_BUDGET")) {
            fatal_if(fixed, "DARCO_BUDGET is set, but this bench runs "
                            "fixed budgets and takes only --csv");
            args.budget = runner::parseCount("DARCO_BUDGET", env, kMaxBudget);
        }
        const std::vector<std::string> rest =
            accepts == Flags::Campaign
                ? runner::parseCampaignFlags(argc, argv, args.campaign)
                : std::vector<std::string>(argv + 1, argv + argc);
        for (const std::string &arg : rest) {
            auto value = [&](const char *prefix) -> const char * {
                const size_t len = std::strlen(prefix);
                if (arg.rfind(prefix, 0) == 0)
                    return arg.c_str() + len;
                return nullptr;
            };
            if (arg == "--csv") {
                args.csv = true;
            } else if (arg == "--help" || arg == "-h") {
                if (fixed) {
                    std::printf("options: --csv\n");
                    std::exit(0);
                }
                std::printf(
                    "options: --budget=N --suite=NAME --benchmark=NAME "
                    "--csv\n  suites: 'SPEC INT', 'SPEC FP', "
                    "'Physics', 'Media'\n  benchmark: a synthetic name "
                    "or a workload URI\n    (source://synthetic/<name>, "
                    "source://trace/<file>)\n"
                    "  env: DARCO_BUDGET\n");
                if (accepts == Flags::Campaign) {
                    std::printf("campaign options:\n");
                    std::fputs(runner::kCampaignFlagsHelp, stdout);
                }
                std::exit(0);
            } else if (fixed) {
                fatal("unknown argument: %s (this bench runs fixed "
                      "workloads and takes only --csv)", arg.c_str());
            } else if (const char *v = value("--budget=")) {
                args.budget = runner::parseCount("--budget", v, kMaxBudget);
            } else if (const char *v2 = value("--suite=")) {
                args.suite = v2;
            } else if (const char *v3 = value("--benchmark=")) {
                args.benchmark = v3;
            } else {
                fatal("unknown argument: %s", arg.c_str());
            }
        }
        return args;
    }
};

/**
 * The shared System/config wiring every bench repeats: the guest
 * budget plus the budget-scaled BB->SB promotion threshold. Apply
 * before per-bench config tweaks (a grid point that overrides the
 * threshold simply assigns over it).
 */
inline void
applyBudget(sim::MetricsOptions &options, uint64_t budget)
{
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold =
        sim::scaledSbThreshold(budget);
}

/** Fresh MetricsOptions pre-wired for the parsed args. */
inline sim::MetricsOptions
makeMetricsOptions(const BenchArgs &args)
{
    sim::MetricsOptions options;
    applyBudget(options, args.budget);
    return options;
}

/**
 * Workload URIs selected by the args, in figure order, without
 * resolving them (resolution can be expensive — a trace URI reads
 * and checksums the whole file — so sweepJobs leaves it to the
 * runner's workers). `--benchmark=` accepts a full workload URI (any
 * registered scheme) or a bare synthetic benchmark name.
 */
inline std::vector<std::string>
selectWorkloadUris(const BenchArgs &args)
{
    std::vector<std::string> uris;
    if (workloads::isSourceUri(args.benchmark)) {
        uris.push_back(args.benchmark);
        return uris;
    }
    for (const workloads::BenchParams &p : workloads::allBenchmarks()) {
        if (!args.suite.empty() && p.suite != args.suite)
            continue;
        if (!args.benchmark.empty() && p.name != args.benchmark)
            continue;
        uris.push_back(workloads::syntheticUri(p.name));
    }
    fatal_if(uris.empty(), "no benchmarks match the filters");
    return uris;
}

/** The selected workloads, resolved through the source registry. */
inline std::vector<workloads::Workload>
selectWorkloads(const BenchArgs &args)
{
    std::vector<workloads::Workload> selected;
    for (const std::string &uri : selectWorkloadUris(args))
        selected.push_back(workloads::resolveWorkload(uri));
    return selected;
}

/**
 * One job per selected workload, each running @p options under the
 * parsed budget. In-file capture pins are not checked: a figure
 * configuration is rarely the one a trace was captured under, so pin
 * enforcement lives in the trace gates, engine_speed and
 * run_benchmark, not in figure sweeps.
 */
inline std::vector<runner::BatchJob>
sweepJobs(const BenchArgs &args, sim::MetricsOptions options)
{
    applyBudget(options, args.budget);
    std::vector<runner::BatchJob> jobs;
    for (std::string &uri : selectWorkloadUris(args)) {
        runner::BatchJob job;
        job.workload = std::move(uri);
        job.options = options;
        job.checkCapturedPins = false;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/**
 * Run @p jobs through runner::BatchRunner under the parsed campaign
 * flags and return one slot per job, in job order. Any failed job is
 * fatal. Slots outside this --shard were never executed (another
 * shard of the same campaign owns them) and come back with
 * `skipped` set; callers leave them out of their tables.
 *
 * This is the only way a bench runs a sweep. Every job is an
 * independent deterministic System, so the slots are bit-identical
 * at any --jobs value (1 runs them inline on the calling thread) and
 * whether they were simulated or served from --cache-dir — only
 * wall clock changes (tests/test_batch_runner.cc enforces this).
 */
inline std::vector<runner::JobResult>
runJobs(const BenchArgs &args, const std::vector<runner::BatchJob> &jobs)
{
    runner::BatchConfig config = args.campaign;
    config.onJobDone = [](size_t, const runner::JobResult &r) {
        std::fprintf(stderr, "  finished %-24s %s%s\n",
                     r.name.empty() ? r.uri.c_str() : r.name.c_str(),
                     r.cacheStatus == runner::CacheStatus::Hit
                         ? "(cache hit) "
                         : "",
                     r.ok ? "" : "(FAILED)");
    };
    const runner::BatchRunner pool(config);
    std::fprintf(stderr, "  sweeping %zu jobs on %u workers\n",
                 jobs.size(), pool.effectiveWorkers(jobs.size()));
    std::vector<runner::JobResult> results = pool.run(jobs);
    for (const runner::JobResult &r : results) {
        fatal_if(!r.skipped && !r.ok,
                 "sweep job %s failed (%s after %u attempt(s)):\n%s",
                 r.uri.c_str(), r.runError.name(), r.attempts,
                 r.error.c_str());
    }
    return results;
}

/**
 * Run the selected workloads under @p options and append the four
 * suite averages. A sharded sweep returns only this shard's metrics;
 * suite averages appear only when the shard happens to cover a whole
 * suite.
 */
inline std::vector<sim::BenchMetrics>
runSweep(const BenchArgs &args, const sim::MetricsOptions &options)
{
    std::vector<sim::BenchMetrics> all;
    for (runner::JobResult &r : runJobs(args, sweepJobs(args, options))) {
        if (!r.skipped)
            all.push_back(std::move(r.metrics));
    }

    // Suite averages (only when the full suite ran).
    for (const char *suite : {"SPEC INT", "SPEC FP", "Physics", "Media"}) {
        std::vector<sim::BenchMetrics> members;
        for (const sim::BenchMetrics &m : all) {
            if (m.suite == suite)
                members.push_back(m);
        }
        if (!members.empty() &&
            members.size() == workloads::suiteBenchmarks(suite).size()) {
            all.push_back(sim::averageMetrics(
                members, std::string("AVG ") + suite));
        }
    }
    return all;
}

inline void
renderTable(const Table &table, const BenchArgs &args)
{
    if (args.csv)
        table.renderCsv();
    else
        table.render();
}

// ---------------------------------------------------------------------
// Simulator-throughput reporting (machine-readable perf trajectory)
// ---------------------------------------------------------------------

/**
 * Process-CPU-time stopwatch. CPU time (not wall clock) keeps the
 * perf trajectory comparable when the measuring machine is shared;
 * the simulator is single-threaded, so the two agree on an idle box.
 */
class CpuTimer
{
  public:
    CpuTimer() : start(sample()) {}

    double seconds() const { return sample() - start; }

  private:
    static double
    sample()
    {
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    double start;
};

/**
 * Host timings of one engine scenario (e.g. interpreter-only
 * execution). The three counts are the numerators of the rates and
 * are not written: the simulated quantities live in engine_speed's
 * stdout rows, checked by the golden.engine_speed ctest.
 */
struct ThroughputSample
{
    std::string name;
    uint64_t guestRetired = 0;   ///< guest instructions simulated
    uint64_t hostRecords = 0;    ///< host-instruction records timed
    uint64_t cycles = 0;         ///< simulated cycles
    double seconds = 0;          ///< host process-CPU seconds
    /**
     * Same scenario re-run on the cycle-stepped reference timing
     * core: the in-process A/B that backs the event_core_speedup
     * field.
     */
    double steppedSeconds = 0;
};

/**
 * Collects ThroughputSamples and writes BENCH_engine.json: per
 * scenario, the same-run host timings that bench/check_perf.py
 * compares with the committed trajectory.
 */
class ThroughputReporter
{
  public:
    explicit ThroughputReporter(std::string engine_label)
        : label(std::move(engine_label))
    {}

    void add(ThroughputSample sample) { samples.push_back(sample); }

    void
    write(const char *path = "BENCH_engine.json") const
    {
        FILE *out = std::fopen(path, "w");
        fatal_if(!out, "cannot open %s for writing", path);
        std::fprintf(out, "{\n  \"bench\": \"%s\",\n", label.c_str());
        std::fprintf(out, "  \"scenarios\": {\n");
        for (size_t i = 0; i < samples.size(); ++i) {
            const ThroughputSample &s = samples[i];
            auto rate = [&](uint64_t count) {
                return s.seconds > 0
                    ? static_cast<double>(count) / s.seconds : 0.0;
            };
            std::fprintf(out,
                         "    \"%s\": {\n"
                         "      \"seconds\": %.6f,\n"
                         "      \"guest_mips\": %.3f,\n"
                         "      \"host_inst_per_sec\": %.0f,\n"
                         "      \"sim_cycles_per_sec\": %.0f,\n"
                         "      \"stepped_seconds\": %.6f,\n"
                         "      \"event_core_speedup\": %.2f\n"
                         "    }%s\n",
                         s.name.c_str(), s.seconds,
                         rate(s.guestRetired) / 1e6, rate(s.hostRecords),
                         rate(s.cycles), s.steppedSeconds,
                         s.seconds > 0 ? s.steppedSeconds / s.seconds : 0.0,
                         i + 1 < samples.size() ? "," : "");
        }
        std::fprintf(out, "  }\n}\n");
        std::fclose(out);
        std::fprintf(stderr, "wrote %s\n", path);
    }

  private:
    std::string label;
    std::vector<ThroughputSample> samples;
};

} // namespace darco::bench

#endif // DARCO_BENCH_BENCH_UTIL_HH
