/**
 * @file
 * Experiment identity: the config fingerprint and the engine version
 * that together say whether two runs are the same experiment.
 *
 * The result cache (runner/result_cache.hh) keys every entry on
 * these two names plus the resolved workload URI, and the batch
 * runner's intra-batch dedup groups jobs by the fingerprint. A
 * changed threshold, cache geometry or pipeline flag changes the
 * fingerprint; a changed engine changes the version; either makes
 * an old result unusable.
 *
 * The header keeps the path of the campaign journal it once also
 * declared, because the campaign benchmark (perfbench/) includes it
 * by that path. The journal itself is gone: a crashed campaign
 * resumes by re-running the same command with the same --cache-dir
 * (docs/robustness.md §4).
 */

#ifndef DARCO_RUNNER_JOURNAL_HH
#define DARCO_RUNNER_JOURNAL_HH

#include <cstdint>
#include <string>

#include "sim/metrics.hh"

namespace darco::runner {

/**
 * Engine version pin: cache entries from a different engine version
 * are ignored. Bump whenever a change could alter any measured
 * quantity (same discipline as the perf baselines).
 */
constexpr const char *kJournalEngineVersion = "darco-engine-4";

/**
 * Hash the effective experiment definition: every MetricsOptions
 * field that influences the simulation (tolConfig, timingConfig,
 * guest budget, pipeline instance flags) plus the workload string
 * and the harness's halt requirement. Runtime wiring like the cancel
 * token is excluded. Canonical field-by-field text dump under the
 * hood — never raw struct bytes, whose padding is indeterminate.
 */
uint64_t configFingerprint(const sim::MetricsOptions &effective,
                           const std::string &workload,
                           bool requireHalt);

} // namespace darco::runner

#endif // DARCO_RUNNER_JOURNAL_HH
