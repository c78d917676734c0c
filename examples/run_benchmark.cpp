/**
 * @file
 * Command-line benchmark runner — the "controller" a DARCO user would
 * drive by hand: run any of the 48 workloads (or list them), set the
 * budget and thresholds, toggle TOL features, enable co-simulation,
 * and dump full statistics or the disassembly of the hottest
 * translated region.
 *
 *   $ ./run_benchmark --list
 *   $ ./run_benchmark 462.libquantum --budget=1000000 --cosim
 *   $ ./run_benchmark 400.perlbench --no-ibtc --dump-hottest
 *   $ ./run_benchmark 429.mcf --capture=mcf.dtrc
 *   $ ./run_benchmark source://trace/mcf.dtrc
 *   $ ./run_benchmark 429.mcf 462.libquantum 473.astar --jobs=4
 *
 * With several workloads, the runs execute on a BatchRunner worker
 * pool (--jobs workers) and print one summary line each; the
 * detailed single-workload report is unchanged.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "host/disasm.hh"
#include "runner/batch_runner.hh"
#include "runner/campaign_flags.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

void
usage()
{
    std::printf(
        "usage: run_benchmark <name-or-uri> [more workloads...] "
        "[options]\n"
        "       run_benchmark --list\n"
        "workload: a synthetic benchmark name, or a source URI\n"
        "  (source://synthetic/<name>, source://trace/<file>);\n"
        "  trace workloads replay their capture-time recipe unless\n"
        "  --budget/--sb-threshold override it, and must reproduce\n"
        "  its pins unless one of those or a toggle changes the run\n"
        "options:\n"
        "  --budget=N        guest instructions (default 2000000)\n"
        "  --sb-threshold=N  BB->SB threshold (default: budget-scaled)\n"
        "  --capture=PATH    snapshot the run to a replayable trace\n"
        "  --cosim           verify against the authoritative emulator\n"
        "  --no-chaining --no-ibtc --no-bbm-opts --no-sbm-opts\n"
        "  --no-scheduling --ibtc-2way --sb-partition --no-prefetcher\n"
        "  --no-burst        disable the event core's burst dispatcher\n"
        "  --isolation       also run TOL-only/APP-only instances\n"
        "  --dump-hottest    disassemble the most-executed region\n"
        "campaign options (any of them but --jobs routes even one\n"
        "workload through the batch runner):\n");
    std::fputs(runner::kCampaignFlagsHelp, stdout);
    std::printf(
        "in batch mode (several workloads, or any campaign option\n"
        "but --jobs), --capture/--cosim/--isolation/--dump-hottest\n"
        "are single-run features and are rejected\n");
}

using Opts = sim::MetricsOptions;

/**
 * The TOL and timing toggles. Each one changes the combined run, so
 * a trace replayed under any of them is no longer the run its
 * in-file pins describe.
 */
struct Toggle
{
    const char *flag;
    void (*apply)(Opts &);
};

const Toggle kToggles[] = {
    {"--no-chaining", [](Opts &o) { o.tolConfig.enableChaining = false; }},
    {"--no-ibtc", [](Opts &o) { o.tolConfig.enableIbtc = false; }},
    {"--no-bbm-opts", [](Opts &o) { o.tolConfig.enableBbmOpts = false; }},
    {"--no-sbm-opts", [](Opts &o) { o.tolConfig.enableSbmOpts = false; }},
    {"--no-scheduling", [](Opts &o) { o.tolConfig.enableScheduling = false; }},
    {"--ibtc-2way", [](Opts &o) { o.tolConfig.ibtcWays = 2; }},
    {"--sb-partition", [](Opts &o) { o.tolConfig.sbPartitionPercent = 50; }},
    {"--no-prefetcher",
     [](Opts &o) { o.timingConfig.prefetcherEnabled = false; }},
    {"--no-burst", [](Opts &o) { o.timingConfig.burst = false; }},
};

/** One "label cycles IPC miss-rates" line for an isolation pipe. */
void
printPipe(const char *label, const timing::PipeStats *pipe)
{
    if (!pipe)
        return;
    std::printf("%-12s %llu cycles, IPC %.2f  D$ %.2f%%  I$ %.2f%%  "
                "BP %.2f%%\n",
                label, static_cast<unsigned long long>(pipe->cycles),
                pipe->ipc(), 100.0 * pipe->l1d.missRate(),
                100.0 * pipe->l1i.missRate(),
                100.0 * pipe->bp.mispredictRate());
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    // Every run, batched or not, is this job with its workload set.
    runner::BatchJob job;
    bool cosim = false;
    bool dump_hottest = false;
    bool toggled = false;
    runner::BatchConfig config;

    for (const std::string &arg :
         runner::parseCampaignFlags(argc, argv, config)) {
        if (arg == "--list") {
            for (const std::string &uri : workloads::listWorkloadUris())
                std::printf("%s\n", uri.c_str());
            return 0;
        } else if (arg.rfind("--budget=", 0) == 0) {
            job.guestBudgetOverride = runner::parseCount(
                "--budget", arg.substr(9),
                std::numeric_limits<uint64_t>::max());
        } else if (arg.rfind("--capture=", 0) == 0) {
            job.options.captureTracePath = arg.substr(10);
        } else if (arg.rfind("--sb-threshold=", 0) == 0) {
            job.sbThresholdOverride =
                static_cast<uint32_t>(runner::parseCount(
                    "--sb-threshold", arg.substr(15),
                    std::numeric_limits<uint32_t>::max()));
        } else if (arg == "--cosim") {
            cosim = true;
        } else if (const Toggle *t = std::find_if(
                       std::begin(kToggles), std::end(kToggles),
                       [&](const Toggle &k) { return arg == k.flag; });
                   t != std::end(kToggles)) {
            t->apply(job.options);
            toggled = true;
        } else if (arg == "--isolation") {
            job.options.tolOnlyPipe = true;
            job.options.appOnlyPipe = true;
            job.options.tolModulePipe = true;
        } else if (arg == "--dump-hottest") {
            dump_hottest = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            names.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    if (names.empty()) {
        usage();
        return 1;
    }
    for (const std::string &n : names) {
        if (!workloads::isSourceUri(n) && !workloads::findBenchmark(n)) {
            std::fprintf(stderr,
                         "unknown benchmark '%s' (see --list)\n",
                         n.c_str());
            return 1;
        }
    }

    // The budget-scaled threshold is the default; a trace's capture
    // recipe replaces the budget and thresholds, and --budget and
    // --sb-threshold win over both (runner::effectiveOptions). Its
    // in-file pins are checked exactly when no option changed the
    // combined run.
    job.options.tolConfig.bbToSbThreshold = sim::scaledSbThreshold(
        job.guestBudgetOverride.value_or(job.options.guestBudget));
    job.checkCapturedPins = !job.guestBudgetOverride &&
                            !job.sbThresholdOverride && !toggled;

    // Batch-runner features route even a single workload through
    // the batch path (summary line instead of the detailed report).
    if (names.size() > 1 || runner::needsBatchRunner(config)) {
        // Batch mode: independent Systems on a worker pool, one
        // summary line per workload in request order. The detailed
        // single-run reports (capture confirmation, cosim verdict,
        // isolation stats, hottest-region dump) have no column in
        // the summary, so the flags that exist only to feed them
        // are rejected rather than silently burning work.
        if (!job.options.captureTracePath.empty() || cosim ||
            dump_hottest || job.options.tolOnlyPipe) {
            std::fprintf(stderr,
                         "--capture/--cosim/--isolation/"
                         "--dump-hottest are single-workload "
                         "features\n");
            return 1;
        }
        std::vector<runner::BatchJob> batch;
        for (const std::string &n : names) {
            batch.push_back(job);
            batch.back().workload = n;
        }
        const runner::BatchRunner pool(config);
        std::fprintf(stderr, "running %zu workloads on %u workers\n",
                     batch.size(),
                     pool.effectiveWorkers(batch.size()));

        bool all_ok = true;
        size_t hits = 0, misses = 0, bypasses = 0;
        std::printf("%-24s %-10s %12s %12s %7s %6s %7s\n", "workload",
                    "suite", "guest insts", "cycles", "IPC", "halt",
                    "cache");
        for (const runner::JobResult &r : pool.run(batch)) {
            // Out-of-shard slots belong to another runner of the
            // same campaign: no line, no exit-code influence.
            if (r.skipped)
                continue;
            const char *cache_col = "-";
            switch (r.cacheStatus) {
              case runner::CacheStatus::Hit:
                ++hits;
                cache_col = r.verifiedHit ? "hit+v" : "hit";
                break;
              case runner::CacheStatus::Miss:
                ++misses;
                cache_col = "miss";
                break;
              case runner::CacheStatus::Bypass:
                ++bypasses;
                cache_col = "bypass";
                break;
              case runner::CacheStatus::None:
                break;
            }
            if (!r.ok) {
                // One classified line per failure: class, whether a
                // retry could help, attempts spent, and the detail —
                // and a non-zero exit below, so a campaign script
                // cannot mistake a half-failed sweep for a clean one.
                all_ok = false;
                std::printf("%-24s FAILED %s (%s, %u attempt%s): %s\n",
                            r.name.empty() ? r.uri.c_str()
                                           : r.name.c_str(),
                            r.runError.name(),
                            r.runError.transient() ? "transient"
                                                   : "permanent",
                            r.attempts, r.attempts == 1 ? "" : "s",
                            r.runError.context.c_str());
                continue;
            }
            const double cycles = std::max(
                1.0, static_cast<double>(r.snapshot.result.cycles));
            std::printf("%-24s %-10s %12llu %12llu %7.3f %6s %7s\n",
                        r.name.c_str(), r.suite.c_str(),
                        static_cast<unsigned long long>(
                            r.snapshot.result.guestRetired),
                        static_cast<unsigned long long>(
                            r.snapshot.result.cycles),
                        static_cast<double>(
                            r.snapshot.result.guestRetired) / cycles,
                        r.snapshot.result.halted ? "yes" : "no",
                        cache_col);
        }
        if (!config.cacheDir.empty()) {
            const size_t looked_up = hits + misses;
            std::printf("cache: %zu hit%s, %zu miss%s, %zu bypass "
                        "(hit rate %.1f%%)\n",
                        hits, hits == 1 ? "" : "s", misses,
                        misses == 1 ? "" : "es", bypasses,
                        looked_up
                            ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(looked_up)
                            : 0.0);
        }
        return all_ok ? 0 : 1;
    }

    // Single-workload mode keeps a live System for the features
    // that need one: --cosim, --dump-hottest and --capture.
    job.workload = names.front();
    const workloads::Workload workload =
        workloads::resolveWorkload(job.workload);
    sim::SimConfig cfg =
        sim::configFromOptions(runner::effectiveOptions(job, workload));
    cfg.cosim = cosim;
    sim::System sys(cfg);
    sys.load(workload);
    const sim::SystemResult res = sys.run();

    const tol::TolStats &ts = sys.tolStats();
    const timing::PipeStats &ps = sys.combinedStats();
    const double cycles = std::max(1.0, static_cast<double>(ps.cycles));

    std::printf("== %s (%s) ==\n", workload.name.c_str(),
                workload.suite.c_str());
    if (!cfg.captureTracePath.empty()) {
        std::printf("captured     %s (replay with "
                    "source://trace/%s)\n",
                    cfg.captureTracePath.c_str(),
                    cfg.captureTracePath.c_str());
    }
    std::printf("guest insts  %-12llu halted %-5s cycles %llu "
                "(guest IPC %.3f)\n",
                static_cast<unsigned long long>(res.guestRetired),
                res.halted ? "yes" : "no",
                static_cast<unsigned long long>(res.cycles),
                static_cast<double>(res.guestRetired) / cycles);
    std::printf("modes        IM %llu / BBM %llu / SBM %llu dynamic; "
                "static %zu insts\n",
                static_cast<unsigned long long>(ts.dynIm),
                static_cast<unsigned long long>(ts.dynBbm),
                static_cast<unsigned long long>(ts.dynSbm),
                ts.staticMode.size());
    std::printf("translation  %llu BBs, %llu SBs, %llu chains, "
                "%llu flushes\n",
                static_cast<unsigned long long>(ts.bbsTranslated),
                static_cast<unsigned long long>(ts.sbsCreated),
                static_cast<unsigned long long>(ts.chainsPatched),
                static_cast<unsigned long long>(ts.codeCacheFlushes));
    std::printf("indirects    %llu executed, %llu IBTC misses, "
                "%llu map lookups\n",
                static_cast<unsigned long long>(ts.guestIndirectBranches),
                static_cast<unsigned long long>(ts.ibtcMisses),
                static_cast<unsigned long long>(ts.mapLookups));
    std::printf("time split   app %.1f%% / TOL %.1f%%\n",
                100.0 * ps.appCycles() / cycles,
                100.0 * ps.tolCycles() / cycles);
    std::printf("caches       L1D miss %.2f%%  L1I miss %.2f%%  "
                "L2 miss %.2f%%  BP mispredict %.2f%%\n",
                100.0 * ps.l1d.missRate(), 100.0 * ps.l1i.missRate(),
                100.0 * ps.l2.missRate(), 100.0 * ps.bp.mispredictRate());
    std::printf("bubbles      D$ %.1f%%  I$ %.1f%%  branch %.1f%%  "
                "sched %.1f%%\n",
                100.0 * ps.bucketTotal(timing::Bucket::DcacheBubble) /
                    cycles,
                100.0 * ps.bucketTotal(timing::Bucket::IcacheBubble) /
                    cycles,
                100.0 * ps.bucketTotal(timing::Bucket::BranchBubble) /
                    cycles,
                100.0 * ps.bucketTotal(timing::Bucket::SchedBubble) /
                    cycles);
    if (cfg.cosim) {
        std::printf("cosim        %llu commits checked: %s\n",
                    static_cast<unsigned long long>(
                        sys.checker()->commits()),
                    res.memoryDiff.empty() && sys.checker()->failures()
                                                  .empty()
                        ? "OK"
                        : "MISMATCH");
    }
    // --isolation: the TOL-module pipe (Figure 8) and the TOL-only
    // and APP-only pipes (Figure 10), each stream timed alone.
    printPipe("TOL module", sys.tolModuleStats());
    printPipe("TOL only", sys.tolOnlyStats());
    printPipe("APP only", sys.appOnlyStats());

    if (dump_hottest) {
        // Walk the code cache for the most-executed region.
        host::CodeRegion *hottest = nullptr;
        for (uint32_t pc = host::amap::kCodeCacheBase;
             pc < host::amap::kCodeCacheLimit;) {
            host::CodeRegion *region =
                sys.tolRuntime().codeStore().find(pc);
            if (!region)
                break;
            if (!hottest || region->execCount > hottest->execCount)
                hottest = region;
            pc = region->hostLimit() + 16;
        }
        if (hottest) {
            std::printf("\nhottest region (executed %u times):\n%s",
                        hottest->execCount,
                        host::disassembleRegion(*hottest).c_str());
        }
    }
    if (job.checkCapturedPins && workload.capturedPins) {
        const std::string diff = trace::diffPins(
            "capture",
            sim::measuredPins(sim::snapshotFromSystem(sys, res)),
            *workload.capturedPins);
        if (!diff.empty()) {
            std::fprintf(stderr, "%s", diff.c_str());
            return 1;
        }
        std::printf("pins         match the trace's capture pins\n");
    }
    return 0;
}
