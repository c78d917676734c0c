/**
 * @file
 * Trace round-trip gate (the CI job behind it captures each of the
 * four suites, replays, and fails on any determinism-field
 * mismatch): for one representative benchmark per suite — or a whole
 * suite / every benchmark with the usual filters — run the synthetic
 * workload live with capture enabled, replay the written trace
 * through `source://trace/...`, and require the replay to be
 * bit-identical: the whole run snapshot (sim::diffRunSnapshots:
 * SystemResult fields, the timing core, every timing-pipeline and
 * TOL activity counter) must match the live run exactly, and the
 * replay must match every pin recorded inside the trace
 * (trace::diffPins). Exit 0 = identical, 1 = divergence.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/system.hh"
#include "workloads/source.hh"

namespace {

using namespace darco;

/** Per-suite representatives (same set as ablation_thresholds). */
const char *kSuiteReps[] = {
    "464.h264ref",           // SPEC INT
    "436.cactusADM",         // SPEC FP
    "104.novis_explosions",  // Physics
    "005.h264enc",           // Media
};

/** One capture -> replay round trip; returns true when identical. */
bool
roundTrip(const workloads::Workload &live_workload, uint64_t budget)
{
    const std::string trace_path =
        "roundtrip_" + live_workload.name + ".dtrc";

    std::fprintf(stderr, "  %-24s capture -> %s\n",
                 live_workload.name.c_str(), trace_path.c_str());
    sim::MetricsOptions live_options;
    bench::applyBudget(live_options, budget);
    live_options.captureTracePath = trace_path;
    const sim::RunSnapshot live =
        sim::snapshotRun(live_workload, live_options);

    const workloads::Workload replayed =
        workloads::resolveWorkload(workloads::traceUri(trace_path));
    fatal_if(!replayed.capturedMeta || !replayed.capturedPins,
             "%s: trace lost its recipe or pins", trace_path.c_str());
    // snapshotRun re-applies the trace's capture recipe itself.
    const sim::RunSnapshot replay =
        sim::snapshotRun(replayed, sim::MetricsOptions{});

    // Live against replay (the whole snapshot), then the replay
    // against the pins recorded inside the trace file.
    const std::string diff =
        sim::diffRunSnapshots(live, replay) +
        trace::diffPins("replay", sim::measuredPins(replay),
                        *replayed.capturedPins);
    if (!diff.empty()) {
        std::fprintf(stderr, "  MISMATCH %s:\n%s",
                     live_workload.name.c_str(), diff.c_str());
        return false;
    }
    std::fprintf(stderr, "  %-24s OK  guest=%llu cycles=%llu records=%llu\n",
                 live_workload.name.c_str(),
                 static_cast<unsigned long long>(replay.result.guestRetired),
                 static_cast<unsigned long long>(replay.result.cycles),
                 static_cast<unsigned long long>(replay.stats.records));
    std::remove(trace_path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, false);
    if (args.budget > 2'000'000)
        args.budget = 2'000'000;
    // Unless filters say otherwise, run the four suite reps.
    const bool default_set =
        args.suite.empty() && args.benchmark.empty();

    std::vector<workloads::Workload> selected;
    if (default_set) {
        for (const char *name : kSuiteReps) {
            selected.push_back(workloads::resolveWorkload(
                workloads::syntheticUri(name)));
        }
    } else {
        selected = bench::selectWorkloads(args);
    }

    unsigned failures = 0;
    for (const workloads::Workload &w : selected) {
        fatal_if(w.capturedMeta.has_value(),
                 "%s: the round-trip gate captures live synthetic "
                 "runs; pass the synthetic name, not a trace",
                 w.uri.c_str());
        if (!roundTrip(w, args.budget))
            ++failures;
    }

    if (failures) {
        std::fprintf(stderr,
                     "trace round-trip FAILED on %u workload(s)\n",
                     failures);
        return 1;
    }
    std::printf("trace round-trip OK (%zu workloads, budget %llu)\n",
                selected.size(),
                static_cast<unsigned long long>(args.budget));
    return 0;
}
