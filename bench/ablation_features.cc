/**
 * @file
 * Feature ablation: quantifies each TOL design choice the paper's
 * §III-E discussion calls out — chaining, the IBTC, the BBM "simple
 * optimizations", the full SBM pass pipeline, and instruction
 * scheduling — by toggling one at a time on a representative
 * benchmark subset and reporting the cycle cost of losing it.
 */

#include "bench_util.hh"

using namespace darco;
using bench::BenchArgs;

namespace {

using Opts = sim::MetricsOptions;

struct Variant
{
    const char *name;
    void (*apply)(Opts &);
};

const Variant kVariants[] = {
    {"baseline", [](Opts &) {}},
    {"no chaining", [](Opts &o) { o.tolConfig.enableChaining = false; }},
    {"no IBTC", [](Opts &o) { o.tolConfig.enableIbtc = false; }},
    {"no BBM opts", [](Opts &o) { o.tolConfig.enableBbmOpts = false; }},
    {"no SBM opts", [](Opts &o) { o.tolConfig.enableSbmOpts = false; }},
    {"no scheduling", [](Opts &o) { o.tolConfig.enableScheduling = false; }},
    {"2-way IBTC", [](Opts &o) { o.tolConfig.ibtcWays = 2; }},
    {"SB code partition",
     [](Opts &o) { o.tolConfig.sbPartitionPercent = 50; }},
    {"no prefetcher",
     [](Opts &o) { o.timingConfig.prefetcherEnabled = false; }},
};

const char *kBenchmarks[] = {
    "400.perlbench", "401.bzip2", "464.h264ref", "470.lbm",
    "000.cjpeg", "007.jpg2000enc",
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    if (args.budget > 2'000'000)
        args.budget = 2'000'000;  // 9 variants x 6 benchmarks

    // The grid in table order: per benchmark, the baseline first.
    std::vector<runner::BatchJob> jobs;
    for (const char *name : kBenchmarks) {
        for (const Variant &variant : kVariants) {
            runner::BatchJob job;
            job.workload = workloads::syntheticUri(name);
            job.options = bench::makeMetricsOptions(args);
            variant.apply(job.options);
            jobs.push_back(std::move(job));
        }
    }
    const std::vector<runner::JobResult> results =
        bench::runJobs(args, jobs);

    std::printf("=== Feature ablation (cycles, relative to baseline) "
                "===\n");
    Table t({"benchmark", "variant", "cycles", "vs baseline",
             "overhead%"});
    const size_t per_benchmark = std::size(kVariants);
    for (size_t i = 0; i < results.size(); ++i) {
        const runner::JobResult &r = results[i];
        if (r.skipped)
            continue;
        // Under --shard the baseline may belong to another shard.
        const runner::JobResult &base =
            results[i - i % per_benchmark];
        t.beginRow();
        t.add(kBenchmarks[i / per_benchmark]);
        t.add(kVariants[i % per_benchmark].name);
        t.addf("%llu",
               static_cast<unsigned long long>(r.metrics.cycles));
        if (base.skipped) {
            t.add("-");
        } else {
            t.addf("%+.1f%%",
                   100.0 * (static_cast<double>(r.metrics.cycles) /
                                static_cast<double>(base.metrics.cycles) -
                            1.0));
        }
        t.addf("%.1f", 100.0 * r.metrics.tolOverheadFrac());
    }
    bench::renderTable(t, args);
    return 0;
}
