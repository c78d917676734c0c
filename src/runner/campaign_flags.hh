/**
 * @file
 * The campaign flags every batch-capable command line shares, parsed
 * in one place into a runner::BatchConfig: --jobs, --timeout,
 * --retries, --shard, --cache-dir and --verify-hits. The figure
 * benches (bench/bench_util.hh) and run_benchmark both call
 * parseCampaignFlags, so the two tools accept and reject exactly the
 * same spellings.
 */

#ifndef DARCO_RUNNER_CAMPAIGN_FLAGS_HH
#define DARCO_RUNNER_CAMPAIGN_FLAGS_HH

#include <string>
#include <vector>

#include "runner/batch_runner.hh"

namespace darco::runner {

/** Usage lines for the flags parseCampaignFlags understands. */
extern const char *const kCampaignFlagsHelp;

/**
 * Move the campaign flags among argv[1..argc) into @p config and
 * return every other argument, in order, for the caller to parse.
 * A malformed value fatal()s: a non-numeric count or trailing
 * characters (--jobs=4x, --shard=0/3x), a shard index not below its
 * count, a --verify-hits fraction that is not a number in [0,1], an
 * empty --cache-dir, and --verify-hits without --cache-dir. A typo
 * must never silently run a different campaign.
 */
std::vector<std::string> parseCampaignFlags(int argc,
                                            const char *const *argv,
                                            BatchConfig &config);

/**
 * True when @p config asks for a feature only BatchRunner provides
 * (watchdog, retries, shard or result cache). Such a run goes
 * through the batch runner even for one workload or at --jobs=1.
 */
bool needsBatchRunner(const BatchConfig &config);

} // namespace darco::runner

#endif // DARCO_RUNNER_CAMPAIGN_FLAGS_HH
