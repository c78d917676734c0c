/**
 * @file
 * The traced run: one campaign job executed through the public
 * classes sim::System wires together (tol::Runtime, one
 * timing::Pipeline per filter, profile::Collector, a
 * timing::RecordFanout), with a span around every public call and a
 * timing proxy in front of every record sink.
 *
 * Spans stay in memory. Sink calls are too many to keep one span
 * each, so every proxy keeps its busy time and call count instead;
 * that time counts as child time of the enclosing tol.run span.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/batch_runner.hh"
#include "runner/result_cache.hh"

namespace perfbench {

/** One timed interval, in steady-clock nanoseconds. */
struct Span
{
    const char *name = "";
    /** Index of the enclosing span in the same job, -1 at the root. */
    int32_t parent = -1;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Busy time of one record sink, measured by its proxy. */
struct SinkTime
{
    const char *layer = "";
    uint64_t busyNs = 0;
    uint64_t calls = 0;
};

struct JobTrace
{
    std::vector<Span> spans;
    std::vector<SinkTime> sinks;
};

struct TracedJob
{
    bool ok = false;
    std::string error;
    darco::sim::RunSnapshot snapshot;
    /** Kept so the metric derivation is real work, not dead code. */
    darco::sim::BenchMetrics metrics;
    bool cacheHit = false;
    JobTrace trace;
};

/**
 * Simulate @p job through the rebuilt wiring. With @p store set, the
 * snapshot is published under the key runner::BatchRunner would use,
 * inside a runner.cache_store span.
 */
TracedJob tracedSimulate(const darco::runner::BatchJob &job,
                         darco::runner::ResultCache *store);

/** Serve @p job from @p cache along the runner's hit path. */
TracedJob tracedHit(const darco::runner::BatchJob &job,
                    darco::runner::ResultCache &cache);

/**
 * Add one job's per-layer host seconds to @p layers, keyed by
 * per-layer metric name. A layer's self time is its span minus the
 * time its children cover.
 */
void addLayerTimes(const JobTrace &trace,
                   std::map<std::string, double> &layers);

/** Write spans as Chrome trace-event JSON: one process per pass,
 *  one thread per job. */
bool writeSpans(const std::string &path,
                const std::vector<std::vector<JobTrace>> &passes);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
