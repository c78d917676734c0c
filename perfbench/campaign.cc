#include "campaign.hh"

#include <memory>
#include <stdexcept>

#include "common/logging.hh"
#include "workloads/params.hh"
#include "workloads/source.hh"

namespace perfbench {

using namespace darco;

namespace {

/** The Figure 10 rows (perlbench, lbm, ragdoll, jpg2000enc) plus a
 *  stall-heavy, an FP, a physics and a media workload. */
const std::vector<std::string> kFig10Benchmarks = {
    "400.perlbench", "470.lbm", "107.novis_ragdoll", "007.jpg2000enc",
    "429.mcf", "433.milc", "104.novis_explosions", "000.cjpeg",
};

constexpr uint64_t kLongBudget = 4'000'000;
constexpr uint64_t kShortBudget = 500'000;

/** fig_reuse's fully-associative true-LRU L1-D geometry. */
constexpr uint32_t kReuseLines = 512;
constexpr uint32_t kReuseLineBytes = 64;

/**
 * "source://seeded/<seed>/<benchmark>": the registry benchmark with
 * its generator seed mixed with <seed>.
 */
class SeededSource : public workloads::WorkloadSource
{
  public:
    std::string scheme() const override { return "seeded"; }

    workloads::Workload
    resolve(const std::string &spec) const override
    {
        const size_t slash = spec.find('/');
        const workloads::BenchParams *base = slash == std::string::npos
            ? nullptr : workloads::findBenchmark(spec.substr(slash + 1));
        if (!base) {
            fatal_kind(ErrKind::BadWorkload,
                       "seeded source: bad spec '%s' (expected "
                       "<seed>/<benchmark>)", spec.c_str());
        }
        workloads::BenchParams params = *base;
        params.seed ^= std::stoull(spec.substr(0, slash)) *
                       0x9E3779B97F4A7C15ull;
        workloads::Workload w = workloads::syntheticWorkload(params);
        w.uri = "source://seeded/" + spec;
        return w;
    }
};

std::string
jobUri(const std::string &benchmark, uint64_t seed)
{
    if (seed == 0)
        return workloads::syntheticUri(benchmark);
    return "source://seeded/" + std::to_string(seed) + "/" + benchmark;
}

sim::MetricsOptions
budgetOptions(uint64_t budget)
{
    sim::MetricsOptions options;
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold = sim::scaledSbThreshold(budget);
    return options;
}

void
addJobs(Campaign &c, const std::vector<std::string> &benchmarks,
        const sim::MetricsOptions &options, uint64_t seed)
{
    for (const std::string &b : benchmarks) {
        runner::BatchJob job;
        job.workload = jobUri(b, seed);
        job.options = options;
        c.jobs.push_back(std::move(job));
    }
}

} // namespace

Campaign
makeCampaign(const std::string &name, uint64_t seed)
{
    Campaign c;
    c.name = name;
    c.pinSet = name;
    if (name == "fig10_campaign") {
        sim::MetricsOptions options = budgetOptions(kLongBudget);
        options.tolOnlyPipe = true;
        options.appOnlyPipe = true;
        addJobs(c, kFig10Benchmarks, options, seed);
    } else if (name == "fig6_short_sweep" || name == "warm_resume") {
        std::vector<std::string> all;
        for (const workloads::BenchParams &p : workloads::allBenchmarks())
            all.push_back(p.name);
        addJobs(c, all, budgetOptions(kShortBudget), seed);
        c.pinSet = "fig6_short_sweep";
        c.warm = name == "warm_resume";
    } else if (name == "reuse_profile") {
        sim::MetricsOptions options = budgetOptions(kLongBudget);
        options.profile = true;
        options.timingConfig.l1d = {kReuseLines * kReuseLineBytes,
                                    kReuseLineBytes, kReuseLines, 1,
                                    true};
        addJobs(c, kFig10Benchmarks, options, seed);
        c.analyticLines = kReuseLines;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return c;
}

void
registerSeededSource()
{
    workloads::registerSource(std::make_unique<SeededSource>());
}

} // namespace perfbench
