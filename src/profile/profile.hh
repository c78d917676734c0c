/**
 * @file
 * The characterization-profile collector: one RecordSink that turns
 * the already-batched record stream into a per-run RunProfile —
 * data-reuse-distance histogram (profile/reuse.hh) plus branch
 * profile (profile/branch.hh). Attached to the record fanout by
 * sim::System when SimConfig::profile is on; the hot path is
 * untouched when off (no sink registered, no per-record branch).
 *
 * Stream-order contract: the fanout delivers records in emission
 * order, which is the same program order the combined pipeline
 * accesses the L1-D and the branch predictor in (fetch/issue are
 * in-order). That order equivalence is what makes the collected
 * profiles directly comparable with the pipeline's own counters —
 * the analytic LRU cross-check (profile/analytic.hh) and mispredict
 * attribution both rely on it, and tests/test_profile.cc enforces it.
 */

#ifndef DARCO_PROFILE_PROFILE_HH
#define DARCO_PROFILE_PROFILE_HH

#include <string>

#include "profile/branch.hh"
#include "profile/reuse.hh"
#include "timing/record.hh"

namespace darco::profile {

/**
 * Everything the characterization layer measured in one run. Part of
 * sim::RunSnapshot when profiling is on, so BatchRunner results, the
 * result cache and trace replay all carry it; bit-identity across
 * replays/workers is enforced with diffProfiles below.
 */
struct RunProfile
{
    /** Line granularity the reuse histogram was collected at. */
    uint32_t lineBytes = 64;
    /** Data (LD/ST effective address) reuse-distance histogram. */
    ReuseHistogram dataReuse;
    /** Per-static-branch behavior + aggregates. */
    BranchProfile branches;

    bool
    operator==(const RunProfile &other) const
    {
        return lineBytes == other.lineBytes &&
               dataReuse == other.dataReuse &&
               branches == other.branches;
    }
};

/**
 * Exact comparison of two run profiles, mirroring timing::diffStats /
 * tol::diffTolStats: newline-separated description of each mismatch,
 * empty when bit-identical. Used by the replay/parallel parity gates.
 */
std::string diffProfiles(const RunProfile &a, const RunProfile &b);

/**
 * The online collector. Feed it the record stream (it is a regular
 * fanout sink); read the profile after the producer has flushed.
 */
class Collector : public timing::RecordSink
{
  public:
    /**
     * @param config host timing parameters: l1d.lineBytes sets the
     *        reuse granularity; the branch-predictor geometry
     *        parameterizes the mispredict-attribution replica.
     */
    explicit Collector(const timing::TimingConfig &config);

    void consume(const timing::Record &rec) override;
    void consumeBatch(const timing::Record *recs,
                      std::size_t count) override;

    /** Profile accumulated so far (copies the collector state). */
    RunProfile profile() const;

  private:
    ReuseStack dataStack;
    BranchCollector branchCollector;
    uint32_t lineBytesUsed;
    uint32_t lineShift;
};

} // namespace darco::profile

#endif // DARCO_PROFILE_PROFILE_HH
