#include "traced.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "profile/profile.hh"
#include "runner/journal.hh"
#include "timing/pipeline.hh"
#include "tol/runtime.hh"
#include "workloads/source.hh"

namespace perfbench {

using namespace darco;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Appends nested spans to one job's trace. */
class Tracer
{
  public:
    explicit Tracer(JobTrace &trace) : out(trace) {}

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name) : t(tracer)
        {
            index = t.out.spans.size();
            t.out.spans.push_back({name, t.open, nowNs(), 0});
            t.open = static_cast<int32_t>(index);
        }
        ~Scope()
        {
            Span &s = t.out.spans[index];
            s.endNs = nowNs();
            t.open = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t;
        size_t index = 0;
    };

    Scope span(const char *name) { return Scope(*this, name); }

  private:
    JobTrace &out;
    int32_t open = -1;
};

/** Times every call into the wrapped sink. */
class TimedSink final : public timing::RecordSink
{
  public:
    TimedSink(timing::RecordSink &inner, SinkTime &time)
        : down(inner), busy(time)
    {}

    void
    consume(const timing::Record &rec) override
    {
        const int64_t start = nowNs();
        down.consume(rec);
        busy.busyNs += static_cast<uint64_t>(nowNs() - start);
        ++busy.calls;
    }

    void
    consumeBatch(const timing::Record *recs, size_t count) override
    {
        const int64_t start = nowNs();
        down.consumeBatch(recs, count);
        busy.busyNs += static_cast<uint64_t>(nowNs() - start);
        ++busy.calls;
    }

  private:
    timing::RecordSink &down;
    SinkTime &busy;
};

/** The prepared part of a job, as the runner's prepareJob builds it. */
struct Prepared
{
    workloads::Workload workload;
    sim::MetricsOptions options;
    uint64_t fingerprint = 0;
};

Prepared
prepare(const runner::BatchJob &job, Tracer &tracer)
{
    Prepared p;
    {
        auto s = tracer.span("workloads.resolve");
        p.workload = workloads::resolveWorkload(job.workload);
    }
    p.options = job.options;
    sim::applyCaptureRecipe(p.options, p.workload);
    auto s = tracer.span("runner.fingerprint");
    p.fingerprint = runner::configFingerprint(p.options, job.workload,
                                              job.requireHalt);
    return p;
}

runner::CacheKey
cacheKey(const Prepared &p)
{
    return {p.workload.uri, p.fingerprint,
            std::string(runner::kJournalEngineVersion)};
}

} // namespace

TracedJob
tracedSimulate(const runner::BatchJob &job, runner::ResultCache *store)
{
    TracedJob r;
    Tracer tracer(r.trace);
    ScopedFatalThrow fatal_throws;
    try {
        auto root = tracer.span("job");
        const Prepared prep = prepare(job, tracer);
        const sim::SimConfig cfg = sim::configFromOptions(prep.options);

        // sim::System's wiring: pipelines and the collector in the
        // System's fanout order, each behind a timing proxy.
        struct TimedPipe
        {
            timing::Pipeline::Filter filter;
            std::unique_ptr<timing::Pipeline> pipe;
            SinkTime *time = nullptr;
        };
        std::vector<TimedPipe> pipes;
        std::unique_ptr<profile::Collector> collector;
        std::vector<std::unique_ptr<TimedSink>> proxies;
        host::Memory memory;
        timing::RecordFanout fanout;
        std::unique_ptr<tol::Runtime> runtime;
        // At most five sinks; the proxies hold pointers into the
        // vector, so it must never reallocate.
        r.trace.sinks.reserve(5);
        auto time_sink = [&](timing::RecordSink &sink,
                             const char *layer) -> SinkTime * {
            r.trace.sinks.push_back({layer, 0, 0});
            proxies.push_back(std::make_unique<TimedSink>(
                sink, r.trace.sinks.back()));
            fanout.add(proxies.back().get());
            return &r.trace.sinks.back();
        };
        {
            auto s = tracer.span("sim.setup");
            struct Wanted
            {
                bool on;
                timing::Pipeline::Filter filter;
                const char *layer;
            };
            const Wanted wanted[] = {
                {true, timing::Pipeline::Filter::All, "timing.combined"},
                {cfg.tolOnlyPipe, timing::Pipeline::Filter::TolOnly,
                 "timing.tol_only"},
                {cfg.appOnlyPipe, timing::Pipeline::Filter::AppOnly,
                 "timing.app_only"},
                {cfg.tolModulePipe, timing::Pipeline::Filter::TolModule,
                 "timing.tol_module"},
            };
            for (const Wanted &w : wanted) {
                if (!w.on)
                    continue;
                TimedPipe tp;
                tp.filter = w.filter;
                tp.pipe =
                    std::make_unique<timing::Pipeline>(cfg.timing, w.filter);
                tp.time = time_sink(*tp.pipe, w.layer);
                pipes.push_back(std::move(tp));
            }
            if (cfg.profile) {
                collector =
                    std::make_unique<profile::Collector>(cfg.timing);
                time_sink(*collector, "profile.collector");
            }
            runtime = std::make_unique<tol::Runtime>(cfg.tol, memory,
                                                     fanout);
            auto load = tracer.span("tol.load");
            runtime->load(prep.workload.program);
        }

        tol::Runtime::RunResult rr;
        {
            auto s = tracer.span("tol.run");
            rr = runtime->run(cfg.guestBudget, nullptr);
        }
        for (TimedPipe &tp : pipes) {
            auto s = tracer.span(tp.time->layer);
            tp.pipe->finish();
        }

        sim::RunSnapshot &snap = r.snapshot;
        const timing::Pipeline &combined = *pipes.front().pipe;
        snap.result.guestRetired = rr.guestRetired;
        snap.result.halted = rr.halted;
        snap.result.cancelled = rr.cancelled;
        snap.result.cycles = combined.stats().cycles;
        snap.stats = combined.stats();
        snap.tolStats = runtime->stats();
        for (const TimedPipe &tp : pipes) {
            switch (tp.filter) {
              case timing::Pipeline::Filter::TolOnly:
                snap.tolOnly = tp.pipe->stats();
                break;
              case timing::Pipeline::Filter::AppOnly:
                snap.appOnly = tp.pipe->stats();
                break;
              case timing::Pipeline::Filter::TolModule:
                snap.tolModule = tp.pipe->stats();
                break;
              case timing::Pipeline::Filter::All:
                break;
            }
        }
        if (collector) {
            auto s = tracer.span("profile.collector");
            snap.profile = collector->profile();
        }
        snap.timingCore =
            combined.engine() == timing::Pipeline::Engine::EventDriven
                ? "event" : "reference";
        {
            auto s = tracer.span("sim.collect_metrics");
            r.metrics = sim::collectMetrics(snap, prep.workload.name,
                                            prep.workload.suite);
        }
        if (store) {
            auto s = tracer.span("runner.cache_store");
            store->store(cacheKey(prep), snap);
        }
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

TracedJob
tracedHit(const runner::BatchJob &job, runner::ResultCache &cache)
{
    TracedJob r;
    Tracer tracer(r.trace);
    ScopedFatalThrow fatal_throws;
    try {
        auto root = tracer.span("job");
        const Prepared prep = prepare(job, tracer);
        std::optional<sim::RunSnapshot> snap;
        {
            auto s = tracer.span("runner.cache_lookup");
            snap = cache.lookup(cacheKey(prep));
        }
        if (snap) {
            r.snapshot = std::move(*snap);
            r.cacheHit = true;
            auto s = tracer.span("sim.collect_metrics");
            r.metrics = sim::collectMetrics(
                r.snapshot, prep.workload.name, prep.workload.suite);
            r.ok = true;
        } else {
            r.error = "cache miss for " + job.workload;
        }
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

void
addLayerTimes(const JobTrace &trace,
              std::map<std::string, double> &layers)
{
    std::vector<int64_t> child_ns(trace.spans.size(), 0);
    for (const Span &s : trace.spans) {
        if (s.parent >= 0)
            child_ns[s.parent] += s.endNs - s.startNs;
    }
    int64_t sink_ns = 0;
    for (const SinkTime &t : trace.sinks) {
        sink_ns += static_cast<int64_t>(t.busyNs);
        layers[std::string(t.layer) + "_s"] +=
            static_cast<double>(t.busyNs) * 1e-9;
    }
    for (size_t i = 0; i < trace.spans.size(); ++i) {
        const Span &s = trace.spans[i];
        const std::string name = s.name;
        const int64_t dur = s.endNs - s.startNs;
        if (name == "job" || name == "tol.load")
            continue;
        if (name == "tol.run") {
            // Sink calls happen inside Runtime::run.
            layers["tol.run_self_s"] +=
                static_cast<double>(dur - child_ns[i] - sink_ns) * 1e-9;
        } else {
            // sim.setup keeps its tol.load child: set-up includes the
            // program load. Every other span here is a leaf.
            layers[name + "_s"] += static_cast<double>(dur) * 1e-9;
        }
    }
}

bool
writeSpans(const std::string &path,
           const std::vector<std::vector<JobTrace>> &passes)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t epoch = INT64_MAX;
    for (const auto &pass : passes) {
        for (const JobTrace &jt : pass) {
            for (const Span &s : jt.spans)
                epoch = std::min(epoch, s.startNs);
        }
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (size_t p = 0; p < passes.size(); ++p) {
        for (size_t j = 0; j < passes[p].size(); ++j) {
            const JobTrace &jt = passes[p][j];
            for (const Span &s : jt.spans) {
                std::fprintf(f,
                             "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,"
                             "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                             "\"args\":{\"parent\":%d",
                             first ? "" : ",\n", s.name, p, j,
                             static_cast<double>(s.startNs - epoch) / 1e3,
                             static_cast<double>(s.endNs - s.startNs) /
                                 1e3,
                             s.parent);
                if (std::string(s.name) == "tol.run") {
                    for (const SinkTime &t : jt.sinks) {
                        std::fprintf(f, ",\"%s.busy_us\":%.3f,"
                                        "\"%s.calls\":%llu",
                                     t.layer,
                                     static_cast<double>(t.busyNs) / 1e3,
                                     t.layer,
                                     static_cast<unsigned long long>(
                                         t.calls));
                    }
                }
                std::fprintf(f, "}}");
                first = false;
            }
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
