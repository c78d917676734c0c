/**
 * @file
 * Simulator-throughput harness: measures host speed (process-CPU
 * time, robust on shared machines) of the engine's hottest execution
 * modes (pure interpretation, steady-state translated execution, the
 * default mixed pipeline, a stall-heavy memory-bound run, and
 * trace-driven replays of the mixed/stall-heavy workloads) in
 * guest-MIPS, host-records/s and simulated-cycles/s, and writes those
 * host timings to BENCH_engine.json (compared by bench/check_perf.py).
 * Workloads resolve through the source registry
 * (source://synthetic/..., source://trace/...); the trace scenarios
 * capture their input at startup and hard-fail unless the replay
 * reproduces the capture run's pinned determinism fields.
 *
 * Every scenario runs twice — once on the cycle-stepped reference
 * timing core and once on the event-driven core — and the harness
 * hard-fails unless the two produce bit-identical metrics (every
 * cycle total, every bucket cell, every cache/TLB/predictor counter).
 * The engine is deterministic, so any divergence is a semantics
 * change, not an optimization; the per-scenario event_core_speedup
 * field in the JSON is the load-matched A/B this enforces. See
 * docs/timing-model.md for the equivalence argument.
 *
 * stdout carries one row of simulated quantities per scenario (no
 * clock-derived value), checked against bench/golden/engine_speed.txt
 * by the golden.engine_speed ctest.
 */

#include <cinttypes>

#include "bench_util.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

namespace {

using namespace darco;

/** One timed configuration of the engine. */
struct Scenario
{
    const char *name;
    /** Workload URI (source://synthetic/... or source://trace/...). */
    const char *workload;
    /** Run recipe; ignored for trace workloads, which re-apply the
     *  recipe pinned at capture time. */
    uint64_t budget;
    bool interpretOnly;
    uint32_t sbThreshold;
    /** Host issue width (wide-issue scenarios sweep past 2). */
    uint32_t issueWidth = 2;
    /** When set, build the workload directly from these synthetic
     *  parameters instead of resolving the URI (scenarios that are
     *  not one of the 48 registered paper benchmarks). */
    const workloads::BenchParams *custom = nullptr;
};

/**
 * dense_loop: a high-ILP integer kernel (BenchParams::hotIlp) whose
 * translated steady state issues at full machine width with all
 * same-line component outcomes — the regime the event core's burst
 * dispatcher retires in bulk. Not one of the 48 paper benchmarks
 * (their ILP is a modeled application characteristic); it exists so
 * the golden rows have a scenario where burst coverage is
 * structural, so its pinned burst_fraction shows a predicate
 * regression rather than a workload accident.
 */
const workloads::BenchParams &
denseLoopParams()
{
    static const workloads::BenchParams params = [] {
        workloads::BenchParams p;
        p.name = "dense_loop";
        p.suite = "engine";
        p.seed = 7;
        p.hotLoops = 1;
        p.hotIters = 100'000;
        p.hotBody = 48;
        p.hotIlp = true;
        p.warmLoops = 0;
        p.fpShare = 0.0;
        p.dataKb = 4;
        return p;
    }();
    return params;
}

/** One scenario outcome: the result plus a full metrics snapshot. */
struct RunOutcome
{
    sim::SystemResult result;
    timing::PipeStats stats;
    timing::Pipeline::Engine engine =
        timing::Pipeline::Engine::CycleStepped;
    /** sim::measuredPins with timing_core blank: the A/Bs compare
     *  runs across cores, and `engine` records the core. */
    trace::TracePins pins;
    double seconds = 0;
    /** Whether a characterization profiler was live in the timed
     *  System (read back from the instance, not the requested
     *  config, so a silent re-route cannot go unnoticed). */
    bool profiled = false;
    /** Whether the IR/regalloc verifier was live in the timed System
     *  (same discipline: read back from the live runtime). */
    bool verified = false;
    /** Whether the burst dispatcher was armed in the timed System
     *  (read back from the live pipeline, not the request). */
    bool burst = false;
};

RunOutcome
runScenario(const Scenario &sc, bool event_core, bool verify_ir = false,
            bool burst = true)
{
    const workloads::Workload workload =
        sc.custom ? workloads::syntheticWorkload(*sc.custom)
                  : workloads::resolveWorkload(sc.workload);

    sim::MetricsOptions options;
    options.guestBudget = sc.budget;
    options.tolConfig.bbToSbThreshold = sc.sbThreshold;
    // Perf baselines time the bare engine: the IR/regalloc verifier
    // (default-on under ctest) re-derives dataflow for every
    // translation, which is translation-path work a throughput
    // trajectory must not include (main() refuses to report a timed
    // sample with it live); the verify_ir override exists for the
    // informational overhead A/B below, which never reaches the
    // reporter.
    options.tolConfig.verifyIr = verify_ir;
    options.timingConfig.eventCore = event_core;
    options.timingConfig.burst = burst;
    options.timingConfig.issueWidth = sc.issueWidth;
    if (sc.interpretOnly)
        options.tolConfig.imToBbThreshold = 0xFFFFFFFFu;
    // Bit-identical replay: a trace's capture-time recipe wins over
    // the scenario fields (which are 0 for trace scenarios).
    sim::applyCaptureRecipe(options, workload);

    sim::System sys(sim::configFromOptions(options));
    sys.load(workload);

    bench::CpuTimer timer;
    RunOutcome out;
    out.result = sys.run();
    out.seconds = timer.seconds();
    out.stats = sys.combinedStats();
    out.engine = sys.timingEngine();
    out.profiled = sys.profileCollector() != nullptr;
    out.verified = sys.tolRuntime().config().verifyIr;
    out.burst = sys.timingBurstEnabled();
    out.pins = sim::measuredPins(sim::snapshotFromSystem(sys, out.result));
    out.pins.timingCore.clear();

    if (workload.capturedPins) {
        // A replayed trace must reproduce the capture run's pinned
        // determinism fields on either timing core.
        trace::TracePins pinned = *workload.capturedPins;
        pinned.timingCore.clear();
        const std::string diff = trace::diffPins(sc.name, out.pins, pinned);
        fatal_if(!diff.empty(), "trace replay diverged:\n%s",
                 diff.c_str());
    }
    return out;
}

/**
 * Capture a synthetic workload to a replayable binary trace in the
 * CWD (next to BENCH_engine.json). The capture run doubles as the
 * live run whose determinism fields are pinned inside the trace.
 */
void
captureTrace(const char *benchmark, uint64_t budget,
             uint32_t sb_threshold, const char *path)
{
    sim::SimConfig cfg;
    cfg.guestBudget = budget;
    cfg.tol.bbToSbThreshold = sb_threshold;
    cfg.timing.eventCore = true;
    cfg.captureTracePath = path;
    sim::System sys(cfg);
    sys.load(workloads::resolveWorkload(
        workloads::syntheticUri(benchmark)));
    sys.run();
}

/**
 * Bit-exact comparison of everything both timing cores measure,
 * via the shared timing::diffStats comparator (the same one the A/B
 * determinism tests use, so the covered field set cannot drift).
 */
void
expectIdentical(const char *scenario, const RunOutcome &stepped,
                const RunOutcome &event)
{
    // The A/B is only an A/B if the requested cores actually ran:
    // a silent fallback would compare the reference core to itself
    // and certify nothing (the golden timing_core column guards the
    // same property across changes).
    fatal_if(event.engine != timing::Pipeline::Engine::EventDriven,
             "scenario %s: event-core run fell back to the "
             "reference core",
             scenario);
    fatal_if(stepped.engine != timing::Pipeline::Engine::CycleStepped,
             "scenario %s: reference run used the event core",
             scenario);
    const std::string diff =
        trace::diffPins("event core", event.pins, stepped.pins) +
        timing::diffStats(stepped.stats, event.stats);
    fatal_if(!diff.empty(),
             "event-driven core diverged from the reference core on "
             "%s:\n%s",
             scenario, diff.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Budgets are fixed per scenario so results stay comparable
    // across changes, so parse() accepts only --csv (and --help) and
    // rejects the workload and campaign flags: each sample times one
    // fixed run owning the process.
    const bench::BenchArgs args = bench::BenchArgs::parse(
        argc, argv, bench::BenchArgs::Flags::Csv);

    bench::ThroughputReporter reporter("engine_speed");

    const Scenario scenarios[] = {
        {"interpreter", "source://synthetic/464.h264ref", 250'000,
         true, 300},
        {"translated", "source://synthetic/464.h264ref", 2'000'000,
         false, 300},
        // High-ILP dense kernel (see denseLoopParams above): the
        // burst dispatcher's structural scenario; its golden row pins
        // burst_fraction.
        {"dense_loop", "", 2'000'000, false, 300, 2, &denseLoopParams()},
        {"mixed_464.h264ref", "source://synthetic/464.h264ref",
         1'000'000, false, 1000},
        // Stall-heavy pointer chasing: most cycles are load-miss or
        // TLB stalls, the regime where the event core advances many
        // simulated cycles per host op; sim_cycles_per_sec is its
        // headline column.
        {"stallheavy_429.mcf", "source://synthetic/429.mcf",
         1'000'000, false, 1000},
        // Wide-issue sweep points: the event core used to silently
        // fall back to the reference core above width 2, so these
        // scenarios exist to pin event_core_speedup > 1 at the
        // widths the paper's microarchitectural sweeps visit. Width
        // 3 additionally exercises the non-power-of-two fixed-point
        // denominator (lcm(1..3) = 6).
        {"wide3_464.h264ref", "source://synthetic/464.h264ref",
         1'000'000, false, 1000, 3},
        {"wide4_429.mcf", "source://synthetic/429.mcf", 1'000'000,
         false, 1000, 4},
        // Trace-driven replay: the same workloads as the mixed and
        // stall-heavy scenarios, sourced from binary traces captured
        // at startup (capture -> replay on every harness run). The
        // replay must reproduce the trace's pinned determinism
        // fields exactly (runScenario asserts it in-process), and
        // their golden rows equal the mixed_464.h264ref /
        // stallheavy_429.mcf rows by construction.
        {"trace_464.h264ref",
         "source://trace/engine_speed_464.h264ref.dtrc", 0, false, 0},
        {"trace_429.mcf", "source://trace/engine_speed_429.mcf.dtrc",
         0, false, 0},
    };

    // Capture the trace scenarios' inputs before any timing: the
    // capture runs also pin the determinism fields the replays are
    // checked against.
    std::fprintf(stderr, "  capturing replay traces ...\n");
    captureTrace("464.h264ref", 1'000'000, 1000,
                 "engine_speed_464.h264ref.dtrc");
    captureTrace("429.mcf", 1'000'000, 1000,
                 "engine_speed_429.mcf.dtrc");

    // Simulated quantities only (no clock-derived value), one row per
    // scenario: the golden.engine_speed ctest checks them exactly.
    Table rows({"scenario", "timing_core", "burst", "guest_retired",
                "host_records", "sim_cycles", "l1d_accesses", "l1d_misses",
                "l1i_accesses", "l1i_misses", "l2_accesses", "l2_misses",
                "tlb_accesses", "tlb_l1_misses", "bp_branches",
                "bp_mispredicts", "ipc", "burst_fraction"});
    for (const Scenario &sc : scenarios) {
        std::fprintf(stderr, "  running %-20s (A/B) ...\n", sc.name);
        const RunOutcome stepped = runScenario(sc, false);
        const RunOutcome event = runScenario(sc, true);
        expectIdentical(sc.name, stepped, event);

        // Perf samples time the bare engine: a timed run with a
        // characterization profiler or the IR verifier live times
        // that layer on top, so it is never reported.
        fatal_if(event.profiled || stepped.profiled || event.verified ||
                     stepped.verified,
                 "scenario %s: profiling or IR verification was live "
                 "in a timed run",
                 sc.name);

        const timing::PipeStats &ps = event.stats;
        rows.beginRow();
        rows.add(sc.name);
        rows.add(event.engine == timing::Pipeline::Engine::EventDriven
                     ? "event" : "reference");
        // Dispatch engine actually armed in the timed event run (the
        // reference run never bursts by construction).
        rows.add(event.burst ? "on" : "off");
        for (uint64_t count :
             {event.result.guestRetired, ps.records, event.result.cycles,
              ps.l1d.accesses, ps.l1d.misses, ps.l1i.accesses,
              ps.l1i.misses, ps.l2.accesses, ps.l2.misses,
              ps.tlb.accesses, ps.tlb.l1Misses, ps.bp.branches,
              ps.bp.mispredicts}) {
            rows.addf("%" PRIu64, count);
        }
        rows.addf("%.6f", ps.ipc());
        rows.addf("%.6f", ps.burstFraction());

        bench::ThroughputSample sample;
        sample.name = sc.name;
        sample.guestRetired = event.result.guestRetired;
        sample.hostRecords = ps.records;
        sample.cycles = event.result.cycles;
        sample.seconds = event.seconds;
        sample.steppedSeconds = stepped.seconds;
        reporter.add(sample);

        std::fprintf(stderr,
                     "  a/b %s: stepped=%.3fs event=%.3fs "
                     "speedup=%.2fx\n",
                     sc.name, stepped.seconds, event.seconds,
                     stepped.seconds / event.seconds);
    }

    // Informational verify:on A/B (never committed): re-run the
    // mixed scenario with the IR/regalloc verifier live and report
    // its overhead. The verifier is a pure observer, so the run must
    // reproduce the unverified run's determinism fields bit-exactly —
    // hard-enforced here, since any drift would mean verification
    // changed engine semantics and the "verification is free to turn
    // on" contract (docs/analysis.md) is broken.
    {
        const Scenario &sc = scenarios[3];  // mixed_464.h264ref
        std::fprintf(stderr,
                     "  running %-20s (verify:on, informational) "
                     "...\n",
                     sc.name);
        const RunOutcome plain = runScenario(sc, true);
        const RunOutcome verified = runScenario(sc, true, true);
        fatal_if(!verified.verified || plain.verified,
                 "verify A/B wiring broken: verified run reports "
                 "verifyIr=%d, plain run %d",
                 verified.verified ? 1 : 0, plain.verified ? 1 : 0);
        const std::string pin_diff =
            trace::diffPins("verified", verified.pins, plain.pins);
        fatal_if(!pin_diff.empty(),
                 "IR verification changed determinism fields on %s "
                 "(the verifier must be a pure observer):\n%s",
                 sc.name, pin_diff.c_str());
        std::fprintf(stderr,
                     "  verify overhead %s: off=%.3fs on=%.3fs "
                     "(%.1f%%; determinism fields bit-identical)\n",
                     sc.name, plain.seconds, verified.seconds,
                     100.0 * (verified.seconds / plain.seconds - 1.0));
    }

    // Burst on/off A/B (timings informational, equivalence enforced):
    // re-run the translated and dense_loop scenarios on the event core
    // with the burst dispatcher disabled and hard-fail unless every
    // measured quantity is bit-identical to the bursting run — the
    // "burst dispatch is pure acceleration" contract
    // (docs/timing-model.md §"Burst dispatch"), checked on every
    // harness run over both a low-coverage workload (serial chains;
    // the predicate must reject soundly) and the structural
    // high-coverage one (whole-kernel bursts must retire identically).
    for (const Scenario *psc : {&scenarios[1], &scenarios[2]}) {
        const Scenario &sc = *psc;
        std::fprintf(stderr,
                     "  running %-20s (burst A/B) ...\n", sc.name);
        const RunOutcome with = runScenario(sc, true);
        const RunOutcome without =
            runScenario(sc, true, false, false);
        fatal_if(!with.burst || without.burst,
                 "burst A/B wiring broken: burst-on run reports "
                 "burst=%d, burst-off run %d",
                 with.burst ? 1 : 0, without.burst ? 1 : 0);
        const std::string diff =
            trace::diffPins("burst", with.pins, without.pins) +
            timing::diffStats(without.stats, with.stats);
        fatal_if(!diff.empty(),
                 "burst dispatch diverged from the plain event core "
                 "on %s:\n%s",
                 sc.name, diff.c_str());
        std::fprintf(stderr,
                     "  burst a/b %s: off=%.3fs on=%.3fs (%.2fx; "
                     "burst_fraction=%.3f; stats bit-identical)\n",
                     sc.name, without.seconds, with.seconds,
                     without.seconds / with.seconds,
                     with.stats.burstFraction());
    }

    std::printf("=== engine_speed: simulated quantities per scenario "
                "===\n");
    bench::renderTable(rows, args);
    reporter.write();
    return 0;
}
