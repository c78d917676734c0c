/**
 * @file
 * The benchmark's four workloads: which jobs each campaign pass
 * submits, and the seeded workload source that makes the guest
 * programs a function of --seed. README.md records why each workload
 * was chosen.
 */

#ifndef PERFBENCH_CAMPAIGN_HH
#define PERFBENCH_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/batch_runner.hh"

namespace perfbench {

struct Campaign
{
    std::string name;
    /** Which committed pin set (pins.txt) the jobs are checked
     *  against at the default seed; warm_resume shares the sweep's. */
    std::string pinSet;
    std::vector<darco::runner::BatchJob> jobs;
    /** Passes are served from a result cache filled beforehand. */
    bool warm = false;
    /** Lines of the fully-associative L1-D the profiled jobs use, for
     *  the analytic miss cross-check; 0 when jobs do not profile. */
    uint32_t analyticLines = 0;
};

/**
 * Jobs of @p name for @p seed. Seed 0 keeps the registry seeds and
 * the plain synthetic URIs; any other seed routes every job through
 * the "seeded" source, so the seed is part of the workload URI and a
 * reseeded job can never hit a default-seed cache entry. Throws
 * std::invalid_argument for an unknown name.
 */
Campaign makeCampaign(const std::string &name, uint64_t seed);

/** Register the "seeded" workload source (once per process). */
void registerSeededSource();

} // namespace perfbench

#endif // PERFBENCH_CAMPAIGN_HH
