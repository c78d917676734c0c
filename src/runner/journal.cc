#include "runner/journal.hh"

#include "common/logging.hh"
#include "runner/snapshot_codec.hh"

namespace darco::runner {

uint64_t
configFingerprint(const sim::MetricsOptions &effective,
                  const std::string &workload, bool requireHalt)
{
    const tol::TolConfig &t = effective.tolConfig;
    const timing::TimingConfig &h = effective.timingConfig;
    std::string dump;
    dump.reserve(1024);
    const auto field = [&dump](const char *key, uint64_t v) {
        dump += strprintf("%s=%llu;", key,
                          static_cast<unsigned long long>(v));
    };
    // The workload string first (length-prefixed so a crafted
    // workload cannot alias into the field dump).
    dump += strprintf("workload[%zu]=", workload.size());
    dump += workload;
    dump += ';';
    field("requireHalt", requireHalt);
    field("guestBudget", effective.guestBudget);
    field("tolOnlyPipe", effective.tolOnlyPipe);
    field("appOnlyPipe", effective.appOnlyPipe);
    field("tolModulePipe", effective.tolModulePipe);
    field("profile", effective.profile);
    // TolConfig, declaration order.
    field("imToBbThreshold", t.imToBbThreshold);
    field("bbToSbThreshold", t.bbToSbThreshold);
    field("maxBbGuestInsts", t.maxBbGuestInsts);
    field("maxSbGuestInsts", t.maxSbGuestInsts);
    dump += strprintf("sbBranchBias=%.17g;", t.sbBranchBias);
    field("sbMinEdgeSamples", t.sbMinEdgeSamples);
    field("sbFollowCalls", t.sbFollowCalls);
    field("enableChaining", t.enableChaining);
    field("enableIbtc", t.enableIbtc);
    field("enableBbmOpts", t.enableBbmOpts);
    field("enableSbmOpts", t.enableSbmOpts);
    field("enableScheduling", t.enableScheduling);
    field("verifyIr", t.verifyIr);
    field("ibtcEntries", t.ibtcEntries);
    field("ibtcWays", t.ibtcWays);
    field("transMapBuckets", t.transMapBuckets);
    field("codeCacheBytes", t.codeCacheBytes);
    field("sbPartitionPercent", t.sbPartitionPercent);
    field("imDecodeAlus", t.imDecodeAlus);
    field("imDispatchOverheadAlus", t.imDispatchOverheadAlus);
    field("bbmDecodeAlus", t.bbmDecodeAlus);
    field("bbmIrGenAlusPerInst", t.bbmIrGenAlusPerInst);
    field("passVisitAlus", t.passVisitAlus);
    field("cseHashAlus", t.cseHashAlus);
    field("regallocAlusPerInterval", t.regallocAlusPerInterval);
    field("schedAlusPerEdge", t.schedAlusPerEdge);
    field("emitAlusPerInst", t.emitAlusPerInst);
    field("lookupHashAlus", t.lookupHashAlus);
    field("chainPatchAlus", t.chainPatchAlus);
    field("ibtcFillAlus", t.ibtcFillAlus);
    // TimingConfig, declaration order.
    field("issueWidth", h.issueWidth);
    field("iqSize", h.iqSize);
    field("eventCore", h.eventCore);
    field("burst", h.burst);
    field("bpHistoryBits", h.bpHistoryBits);
    field("btbEntries", h.btbEntries);
    field("btbWays", h.btbWays);
    field("mispredictPenalty", h.mispredictPenalty);
    const auto cache = [&](const char *key,
                           const timing::CacheGeometry &g) {
        dump += strprintf("%s=%u/%u/%u/%u/%u;", key, g.sizeBytes,
                          g.lineBytes, g.ways, g.hitLatency,
                          g.trueLru ? 1u : 0u);
    };
    cache("l1i", h.l1i);
    cache("l1d", h.l1d);
    cache("l2", h.l2);
    field("memLatency", h.memLatency);
    field("prefetcherEntries", h.prefetcherEntries);
    field("prefetcherEnabled", h.prefetcherEnabled);
    field("tlbL1Entries", h.tlbL1Entries);
    field("tlbL1Ways", h.tlbL1Ways);
    field("tlbL1Latency", h.tlbL1Latency);
    field("tlbL2Entries", h.tlbL2Entries);
    field("tlbL2Ways", h.tlbL2Ways);
    field("tlbL2Latency", h.tlbL2Latency);
    field("tlbWalkLatency", h.tlbWalkLatency);
    field("pageBits", h.pageBits);
    field("intSimpleLatency", h.intSimpleLatency);
    field("intComplexLatency", h.intComplexLatency);
    field("fpSimpleLatency", h.fpSimpleLatency);
    field("fpComplexLatency", h.fpComplexLatency);
    return codec::hashString(dump);
}

} // namespace darco::runner
