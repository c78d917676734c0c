/**
 * @file
 * Simulator-throughput harness: measures host speed (process-CPU
 * time, robust on shared machines) of the engine's hottest execution
 * modes (pure interpretation, steady-state translated execution, the
 * default mixed pipeline, a stall-heavy memory-bound run, and
 * trace-driven replays of the mixed/stall-heavy workloads) in
 * guest-MIPS, host-records/s and simulated-cycles/s, and emits
 * BENCH_engine.json so every future PR has a perf trajectory to
 * compare against. Workloads resolve through the source registry
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
 * The baseline_* constants below were measured at the commit
 * immediately before the PR-1 hot-path overhaul (seed engine), with
 * the identical harness, budgets, and build flags.
 */

#include <cinttypes>
#include <cstring>

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
    double baselineGuestMips;
    double baselineHostInstPerSec;
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
 * the committed trajectory has a scenario where burst coverage is
 * structural, making burst_fraction a meaningful CI floor
 * (check_perf.py) rather than a workload accident.
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
    double seconds = 0;
    /** Whether a characterization profiler was live in the timed
     *  System (recorded from the instance, not the requested config,
     *  so a silent re-route shows up in the committed JSON). */
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

    sim::SimConfig cfg;
    cfg.guestBudget = sc.budget;
    cfg.tol.bbToSbThreshold = sc.sbThreshold;
    // Perf baselines time the bare engine: the IR/regalloc verifier
    // (default-on under ctest) re-derives dataflow for every
    // translation, which is translation-path work a throughput
    // trajectory must not include. check_perf.py pins "verify": "off"
    // on every committed scenario; the verify_ir override exists for
    // the informational overhead A/B below, which never reaches the
    // reporter.
    cfg.tol.verifyIr = verify_ir;
    cfg.timing.eventCore = event_core;
    cfg.timing.burst = burst;
    cfg.timing.issueWidth = sc.issueWidth;
    if (sc.interpretOnly)
        cfg.tol.imToBbThreshold = 0xFFFFFFFFu;
    // Bit-identical replay: a trace's capture-time recipe wins over
    // the scenario fields (which are 0 for trace scenarios).
    sim::applyCaptureRecipe(cfg, workload);

    sim::System sys(cfg);
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

    if (workload.capturedPins) {
        // A replayed trace must reproduce the capture run's pinned
        // determinism fields on either timing core.
        const trace::TracePins &pins = *workload.capturedPins;
        fatal_if(out.result.guestRetired != pins.guestRetired ||
                     out.result.cycles != pins.simCycles ||
                     out.stats.records != pins.hostRecords,
                 "trace replay diverged from capture pins on %s: "
                 "guest %llu/%llu cycles %llu/%llu records %llu/%llu",
                 sc.name,
                 static_cast<unsigned long long>(
                     out.result.guestRetired),
                 static_cast<unsigned long long>(pins.guestRetired),
                 static_cast<unsigned long long>(out.result.cycles),
                 static_cast<unsigned long long>(pins.simCycles),
                 static_cast<unsigned long long>(out.stats.records),
                 static_cast<unsigned long long>(pins.hostRecords));
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
    // and certify nothing (the committed timing_core field plus
    // check_perf.py guard the same property across PRs).
    fatal_if(event.engine != timing::Pipeline::Engine::EventDriven,
             "scenario %s: event-core run fell back to the "
             "reference core",
             scenario);
    fatal_if(stepped.engine != timing::Pipeline::Engine::CycleStepped,
             "scenario %s: reference run used the event core",
             scenario);
    fatal_if(stepped.result.guestRetired != event.result.guestRetired,
             "A/B mismatch on %s: guest_retired %llu != %llu",
             scenario,
             static_cast<unsigned long long>(
                 stepped.result.guestRetired),
             static_cast<unsigned long long>(
                 event.result.guestRetired));
    const std::string diff =
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
    // across PRs; parse() still provides --help and arg validation.
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    // engine_speed is intentionally serial: every sample is a
    // process-CPU timing of ONE simulation owning the whole process,
    // and the committed BENCH_engine.json trajectory is only
    // comparable under that condition. Concurrent jobs would share
    // caches/bandwidth and poison the measurements (the figure
    // sweeps parallelize fine — their output is simulated
    // quantities, not host timings). check_perf.py enforces the
    // matching "execution": "serial" field on every committed
    // scenario.
    fatal_if(args.campaign.workers > 1,
             "engine_speed is intentionally serial (--jobs=%u "
             "rejected): its samples are host timings, and sharing "
             "the process with concurrent jobs would corrupt the "
             "committed perf trajectory",
             args.campaign.workers);

    bench::ThroughputReporter reporter("engine_speed");

    // Baselines: pre-optimization engine (seed src/, Release build,
    // no IPO/PGO), same harness and budgets, median of 6 interleaved
    // A/B rounds on the same machine (process CPU time).
    const Scenario scenarios[] = {
        {"interpreter", "source://synthetic/464.h264ref", 250'000,
         true, 300, 0.947, 18.0e6},
        {"translated", "source://synthetic/464.h264ref", 2'000'000,
         false, 300, 9.093, 19.8e6},
        // High-ILP dense kernel (see denseLoopParams above): the
        // burst dispatcher's structural scenario. No seed baseline
        // (added with the burst dispatcher); check_perf.py holds its
        // burst_fraction to a floor.
        {"dense_loop", "", 2'000'000, false, 300, 0, 0, 2,
         &denseLoopParams()},
        {"mixed_464.h264ref", "source://synthetic/464.h264ref",
         1'000'000, false, 1000, 7.802, 19.9e6},
        // Stall-heavy pointer chasing: most cycles are load-miss or
        // TLB stalls, the regime where the event core advances many
        // simulated cycles per host op. No seed baseline (added with
        // the event core); cycles_per_host_record and
        // sim_cycles_per_sec are its headline columns.
        {"stallheavy_429.mcf", "source://synthetic/429.mcf",
         1'000'000, false, 1000, 0, 0},
        // Wide-issue sweep points: the event core used to silently
        // fall back to the reference core above width 2, so these
        // scenarios exist to pin event_core_speedup > 1 at the
        // widths the paper's microarchitectural sweeps visit. Width
        // 3 additionally exercises the non-power-of-two fixed-point
        // denominator (lcm(1..3) = 6).
        {"wide3_464.h264ref", "source://synthetic/464.h264ref",
         1'000'000, false, 1000, 0, 0, 3},
        {"wide4_429.mcf", "source://synthetic/429.mcf", 1'000'000,
         false, 1000, 0, 0, 4},
        // Trace-driven replay: the same workloads as the mixed and
        // stall-heavy scenarios, sourced from binary traces captured
        // at startup (capture -> replay on every harness run). The
        // replay must reproduce the trace's pinned determinism
        // fields exactly (runScenario asserts it in-process), so the
        // committed JSON rows for these scenarios are CI's proof
        // that trace round-trips stay bit-identical — their
        // guest_retired/sim_cycles/host_records equal the
        // mixed_464.h264ref / stallheavy_429.mcf rows by
        // construction.
        {"trace_464.h264ref",
         "source://trace/engine_speed_464.h264ref.dtrc", 0, false, 0,
         0, 0},
        {"trace_429.mcf", "source://trace/engine_speed_429.mcf.dtrc",
         0, false, 0, 0, 0},
    };

    // Capture the trace scenarios' inputs before any timing: the
    // capture runs also pin the determinism fields the replays are
    // checked against.
    std::fprintf(stderr, "  capturing replay traces ...\n");
    captureTrace("464.h264ref", 1'000'000, 1000,
                 "engine_speed_464.h264ref.dtrc");
    captureTrace("429.mcf", 1'000'000, 1000,
                 "engine_speed_429.mcf.dtrc");

    for (const Scenario &sc : scenarios) {
        std::fprintf(stderr, "  running %-20s (A/B) ...\n", sc.name);
        const RunOutcome stepped = runScenario(sc, false);
        const RunOutcome event = runScenario(sc, true);
        expectIdentical(sc.name, stepped, event);

        const timing::PipeStats &ps = event.stats;
        bench::ThroughputSample sample;
        sample.name = sc.name;
        sample.guestRetired = event.result.guestRetired;
        sample.hostRecords = ps.records;
        sample.cycles = event.result.cycles;
        sample.seconds = event.seconds;
        sample.timingCore =
            event.engine == timing::Pipeline::Engine::EventDriven
                ? "event" : "reference";
        sample.steppedSeconds = stepped.seconds;
        // Perf baselines time the bare engine: characterization
        // profiling must stay off (check_perf.py pins this in the
        // committed JSON).
        sample.profile =
            (event.profiled || stepped.profiled) ? "on" : "off";
        sample.verify =
            (event.verified || stepped.verified) ? "on" : "off";
        // engine_speed drives System directly, never the BatchRunner,
        // so no result cache can replay a snapshot into a timed run;
        // the field pins that fact in the committed JSON
        // (check_perf.py rejects anything but "off").
        sample.cache = "off";
        // Dispatch engine actually armed in the timed event run (the
        // reference run never bursts by construction).
        sample.burst = event.burst ? "on" : "off";
        sample.burstFraction = ps.burstFraction();
        reporter.add(sample);
        if (sc.baselineGuestMips > 0) {
            reporter.addBaseline(sc.name, sc.baselineGuestMips,
                                 sc.baselineHostInstPerSec);
        }

        // Determinism fingerprint: simulated quantities only (no wall
        // clock). Must not change across speed optimizations.
        std::fprintf(
            stderr,
            "  fingerprint %s: guest=%" PRIu64 " records=%" PRIu64
            " cycles=%" PRIu64 " l1d=%" PRIu64 "/%" PRIu64
            " l1i=%" PRIu64 "/%" PRIu64 " l2=%" PRIu64 "/%" PRIu64
            " tlb=%" PRIu64 "/%" PRIu64 " bp=%" PRIu64 "/%" PRIu64
            " ipc=%.6f\n",
            sc.name, event.result.guestRetired, ps.records,
            event.result.cycles, ps.l1d.accesses, ps.l1d.misses,
            ps.l1i.accesses, ps.l1i.misses, ps.l2.accesses,
            ps.l2.misses, ps.tlb.accesses, ps.tlb.l1Misses,
            ps.bp.branches, ps.bp.mispredicts, ps.ipc());
        std::fprintf(stderr,
                     "  a/b %s: stepped=%.3fs event=%.3fs "
                     "speedup=%.2fx cycles/record=%.3f\n",
                     sc.name, stepped.seconds, event.seconds,
                     stepped.seconds / event.seconds,
                     sample.cyclesPerRecord());
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
        fatal_if(verified.result.guestRetired !=
                         plain.result.guestRetired ||
                     verified.result.cycles != plain.result.cycles ||
                     verified.stats.records != plain.stats.records,
                 "IR verification changed determinism fields on %s: "
                 "guest %llu/%llu cycles %llu/%llu records %llu/%llu "
                 "(the verifier must be a pure observer)",
                 sc.name,
                 static_cast<unsigned long long>(
                     verified.result.guestRetired),
                 static_cast<unsigned long long>(
                     plain.result.guestRetired),
                 static_cast<unsigned long long>(
                     verified.result.cycles),
                 static_cast<unsigned long long>(plain.result.cycles),
                 static_cast<unsigned long long>(
                     verified.stats.records),
                 static_cast<unsigned long long>(plain.stats.records));
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
        fatal_if(with.result.guestRetired !=
                     without.result.guestRetired,
                 "burst dispatch changed guest_retired on %s: "
                 "%llu != %llu",
                 sc.name,
                 static_cast<unsigned long long>(
                     with.result.guestRetired),
                 static_cast<unsigned long long>(
                     without.result.guestRetired));
        const std::string diff =
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

    reporter.write();
    return 0;
}
