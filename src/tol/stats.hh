/**
 * @file
 * TOL activity counters: mode distribution (static and dynamic),
 * region/translation counts, control-flow service counts. These feed
 * Figures 5, 6 and 7 directly.
 */

#ifndef DARCO_TOL_STATS_HH
#define DARCO_TOL_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>

namespace darco::tol {

/** Execution mode of a guest instruction (paper Figure 3). */
enum class Mode : uint8_t { IM = 0, BBM = 1, SBM = 2 };

struct TolStats
{
    // Dynamic guest instructions executed per mode (Figure 5b).
    uint64_t dynIm = 0;
    uint64_t dynBbm = 0;
    uint64_t dynSbm = 0;

    // Static mode map: guest EIP -> highest mode reached (Figure 5a).
    std::unordered_map<uint32_t, uint8_t> staticMode;

    /** noteStatic() fast path (never needs invalidation in place: the
     *  map only grows and its nodes never move). */
    struct StaticSlot
    {
        uint32_t eip = 0;
        uint8_t *slot = nullptr;
    };

    /**
     * The cached pointers alias this object's own staticMode nodes,
     * so a copied TolStats must NOT inherit them: copies start with
     * an empty cache and rebuild against their own map.
     */
    struct StaticCache : std::array<StaticSlot, 2048>
    {
        StaticCache() : std::array<StaticSlot, 2048>{} {}
        StaticCache(const StaticCache &) : StaticCache() {}
        StaticCache &
        operator=(const StaticCache &)
        {
            fill(StaticSlot{});
            return *this;
        }
    };
    StaticCache staticCache;

    // Translation activity (Figure 6 secondary axis).
    uint64_t bbsTranslated = 0;
    uint64_t sbsCreated = 0;        ///< "SBM invocations"
    uint64_t guestInstsTranslatedBb = 0;
    uint64_t guestInstsTranslatedSb = 0;
    uint64_t hostInstsEmittedBb = 0;
    uint64_t hostInstsEmittedSb = 0;

    // Runtime services.
    uint64_t dispatchLoops = 0;
    uint64_t mapLookups = 0;
    uint64_t mapHits = 0;
    uint64_t chainsPatched = 0;
    uint64_t entryForwards = 0;     ///< BB entries redirected to SBs
    uint64_t ibtcMisses = 0;
    uint64_t ibtcFills = 0;
    uint64_t promotions = 0;
    uint64_t codeCacheFlushes = 0;
    uint64_t contextFills = 0;      ///< ctx -> register transitions
    uint64_t contextSpills = 0;     ///< register -> ctx transitions

    // Guest-level dynamic characteristics (Figure 7 secondary axis).
    uint64_t guestIndirectBranches = 0;

    void
    noteStatic(uint32_t eip, Mode mode)
    {
        // Direct-mapped pointer cache in front of the hash map: this
        // runs once per interpreted guest instruction, and hot loops
        // revisit the same few EIPs. unordered_map references are
        // node-stable, so cached pointers survive growth.
        const uint8_t m = static_cast<uint8_t>(mode);
        StaticSlot &cached = staticCache[eip & (staticCache.size() - 1)];
        if (cached.slot && cached.eip == eip) {
            if (*cached.slot < m)
                *cached.slot = m;
            return;
        }
        uint8_t &slot = staticMode[eip];
        slot = std::max(slot, m);
        cached.eip = eip;
        cached.slot = &slot;
    }

    uint64_t dynTotal() const { return dynIm + dynBbm + dynSbm; }

    /** Static instruction counts per terminal mode (Figure 5a). */
    void
    staticCounts(uint64_t &im, uint64_t &bbm, uint64_t &sbm) const
    {
        im = bbm = sbm = 0;
        for (const auto &[eip, mode] : staticMode) {
            switch (mode) {
              case 0: ++im; break;
              case 1: ++bbm; break;
              default: ++sbm; break;
            }
        }
    }
};

/** One TolStats counter: its name and where TolStats keeps it. */
struct TolField
{
    const char *key;
    uint64_t TolStats::*member;
};

/** Every TolStats counter in the result cache's serialization order:
 *  the one list diffTolStats and runner/snapshot_codec.cc walk. */
constexpr TolField kTolFields[] = {
    {"dynIm", &TolStats::dynIm},
    {"dynBbm", &TolStats::dynBbm},
    {"dynSbm", &TolStats::dynSbm},
    {"bbsTranslated", &TolStats::bbsTranslated},
    {"sbsCreated", &TolStats::sbsCreated},
    {"guestInstsTranslatedBb", &TolStats::guestInstsTranslatedBb},
    {"guestInstsTranslatedSb", &TolStats::guestInstsTranslatedSb},
    {"hostInstsEmittedBb", &TolStats::hostInstsEmittedBb},
    {"hostInstsEmittedSb", &TolStats::hostInstsEmittedSb},
    {"dispatchLoops", &TolStats::dispatchLoops},
    {"mapLookups", &TolStats::mapLookups},
    {"mapHits", &TolStats::mapHits},
    {"chainsPatched", &TolStats::chainsPatched},
    {"entryForwards", &TolStats::entryForwards},
    {"ibtcMisses", &TolStats::ibtcMisses},
    {"ibtcFills", &TolStats::ibtcFills},
    {"promotions", &TolStats::promotions},
    {"codeCacheFlushes", &TolStats::codeCacheFlushes},
    {"contextFills", &TolStats::contextFills},
    {"contextSpills", &TolStats::contextSpills},
    {"guestIndirectBranches", &TolStats::guestIndirectBranches},
};

/**
 * Exact comparison of every TOL activity counter two runs produced
 * (including the per-mode static map), mirroring timing::diffStats:
 * returns a newline-separated description of each mismatching field,
 * empty when identical. The trace round-trip gates (tests, bench,
 * CI) use this to prove a replayed workload drove the TOL
 * bit-identically to the live run.
 */
inline std::string
diffTolStats(const TolStats &a, const TolStats &b)
{
    std::string diff;
    char line[128];
    auto mismatch = [&](const char *what, uint64_t va, uint64_t vb) {
        if (va != vb) {
            std::snprintf(line, sizeof(line),
                          "  %s: %llu != %llu\n", what,
                          static_cast<unsigned long long>(va),
                          static_cast<unsigned long long>(vb));
            diff += line;
        }
    };
    for (const TolField &f : kTolFields)
        mismatch(f.key, a.*f.member, b.*f.member);
    uint64_t a_im, a_bbm, a_sbm, b_im, b_bbm, b_sbm;
    a.staticCounts(a_im, a_bbm, a_sbm);
    b.staticCounts(b_im, b_bbm, b_sbm);
    mismatch("staticIm", a_im, b_im);
    mismatch("staticBbm", a_bbm, b_bbm);
    mismatch("staticSbm", a_sbm, b_sbm);
    return diff;
}

} // namespace darco::tol

#endif // DARCO_TOL_STATS_HH
