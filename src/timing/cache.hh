/**
 * @file
 * Set-associative cache, write-back / write-allocate, used for L1-I,
 * L1-D and the unified L2 (Table I). Replacement is tree-PLRU (every
 * Table I cache) or exact LRU (CacheGeometry::trueLru, the profile
 * layer's fully-associative cross-check cache). Exact LRU is O(1) per
 * access at any associativity: a line -> way hash index replaces the
 * set scan, and an intrusive per-set recency list yields the victim.
 */

#ifndef DARCO_TIMING_CACHE_HH
#define DARCO_TIMING_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "timing/config.hh"

namespace darco::timing {

/** Per-cache counters (docs/metrics.md §3). */
struct CacheStats
{
    uint64_t accesses = 0;      ///< demand accesses (not probes)
    uint64_t misses = 0;        ///< demand misses
    uint64_t writebacks = 0;    ///< dirty lines evicted downward
    uint64_t prefetchFills = 0; ///< lines installed by prefetches

    /** Demand miss ratio (0 when never accessed). */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                        : 0.0;
    }
};

/** forEachField over every CacheStats counter (common/fields.hh). */
DARCO_FIELD_LIST(CacheStats, accesses, misses, writebacks, prefetchFills)

class Cache
{
  public:
    /**
     * @param geometry size/line/ways/latency
     * @param next     next level (nullptr = main memory)
     * @param mem_latency latency charged when next == nullptr
     */
    Cache(const CacheGeometry &geometry, Cache *next,
          uint32_t mem_latency);

    /**
     * Access @p addr. Returns the total latency in cycles including
     * lower levels on a miss; fills the line and handles dirty
     * writebacks.
     */
    uint32_t access(uint32_t addr, bool write, bool &miss_out);

    /** Hit check without any state change (for tests). */
    bool probe(uint32_t addr) const;

    /**
     * Would access(@p addr, ...) take the same-line fast path? True
     * exactly when the line matches the set's most recent access and
     * that way is still valid with the same tag — in which case the
     * access would return hitLatency and change no replacement state
     * (only the dirty bit, for writes). A pure observer: the burst
     * dispatcher uses it to prove a window of accesses is
     * state-idempotent before retiring the window in bulk.
     */
    bool
    fastPathHit(uint32_t addr) const
    {
        const uint32_t line = addr >> lineShift;
        const uint32_t set = line & (numSets - 1);
        const LastAccess &last = lastInSet[set];
        if (line != last.line)
            return false;
        const Way &w =
            ways[static_cast<size_t>(set) * geom.ways + last.way];
        return w.valid && w.tag == (line >> setShift);
    }

    /**
     * Apply the one state change a fast-path *write* hit performs:
     * set the line's dirty bit. Caller must have established
     * fastPathHit(@p addr); pair with chargeFastPathHits for the
     * access count.
     */
    void
    markFastPathDirty(uint32_t addr)
    {
        const uint32_t set = (addr >> lineShift) & (numSets - 1);
        ways[static_cast<size_t>(set) * geom.ways +
             lastInSet[set].way].dirty = true;
    }

    /**
     * Account @p n demand accesses that were proven (and applied) as
     * fast-path hits without calling access() — the deferred bulk
     * counter update of a retired burst window. Integer add, so
     * deferral and coalescing are exact.
     */
    void chargeFastPathHits(uint64_t n) { stat.accesses += n; }

    /**
     * Prefetch @p addr into this cache (and lower levels), without a
     * latency charge. Counts as a prefetch fill, not an access.
     */
    void prefetch(uint32_t addr);

    /** Counters accumulated so far. */
    const CacheStats &stats() const { return stat; }

    /** Drop all contents (used between experiments). */
    void reset();

    /** Configured line size in bytes. */
    uint32_t lineBytes() const { return geom.lineBytes; }

  private:
    struct Way
    {
        uint32_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** Way holding @p line in its set, or -1 when absent. */
    int findWay(uint32_t line) const;
    uint32_t plruVictim(uint32_t set) const;
    void plruTouch(uint32_t set, uint32_t way);
    /** Replacement dispatch: tree-PLRU or exact LRU (geom.trueLru). */
    uint32_t victimWay(uint32_t set) const;
    void touchWay(uint32_t set, uint32_t way);
    /**
     * Insert @p addr's line, which must be absent, handling victim
     * writeback. Returns the way used.
     */
    uint32_t fillLine(uint32_t addr, bool dirty, bool charge_fill);

    // Exact-LRU line index (geom.trueLru only).
    uint32_t indexHome(uint32_t line) const;
    void indexInsert(uint32_t line, uint32_t way);
    void indexErase(uint32_t line);

    CacheGeometry geom;
    Cache *nextLevel;
    uint32_t memLatency;
    uint32_t numSets;
    uint32_t lineShift = 0;        ///< log2(lineBytes)
    uint32_t setShift = 0;         ///< log2(numSets)
    std::vector<Way> ways;         ///< numSets * geom.ways
    std::vector<uint8_t> plruBits; ///< numSets * (ways - 1) tree bits

    /**
     * Valid ways per set. Lines are never invalidated one at a time
     * (only reset() clears a cache), so the valid ways of a set are
     * always 0..validWays[set]-1 and the lowest-index invalid way a
     * fill prefers is validWays[set] itself.
     */
    std::vector<uint32_t> validWays;

    /**
     * Exact-LRU state (geom.trueLru only; empty otherwise).
     *
     * lineIndex maps every resident line to its way: open addressing
     * with linear probing over at least twice as many slots as the
     * cache has ways, allocated once, with backward-shift deletion so
     * no tombstones accumulate. findWay and probe read it instead of
     * scanning the set.
     *
     * lruLinks threads each set's valid ways into a circular
     * doubly-linked recency list through a sentinel node (index
     * geom.ways of the set's geom.ways + 1 nodes): sentinel.next is
     * the MRU way, sentinel.prev the LRU way, i.e. the victim. A
     * touch relinks the way at the head. Ways not yet in the list
     * are self-loops, so unlinking one is a no-op and a fill's touch
     * needs no special case. The same-line fast path's skipped
     * re-touch stays correct: a fast-path hit means the most recent
     * touch of the set was this very way, so it is already the head.
     */
    static constexpr uint32_t kNoWay = 0xFFFFFFFFu;
    struct IndexSlot
    {
        uint32_t line = 0;
        uint32_t way = kNoWay; ///< kNoWay marks an empty slot
    };
    struct LruLink
    {
        uint32_t prev;
        uint32_t next;
    };
    std::vector<IndexSlot> lineIndex; ///< 2^indexBits slots
    uint32_t indexBits = 0;
    std::vector<LruLink> lruLinks;    ///< numSets * (geom.ways + 1)

    /**
     * Per-set same-line fast path: the line and way of the most
     * recent access (or fill) in each set. A repeated access to that
     * line skips the way lookup, and the re-touch it skips is a no-op
     * because the most recent touch of the set already points the
     * PLRU tree bits away from that way (or, in exact LRU, made it
     * the list head). Indexed by set so alternating lines in
     * different sets all stay on the fast path.
     */
    struct LastAccess
    {
        uint32_t line = 0xFFFFFFFFu;
        uint32_t way = 0;
    };
    std::vector<LastAccess> lastInSet;   ///< one entry per set

    CacheStats stat;
};

} // namespace darco::timing

#endif // DARCO_TIMING_CACHE_HH
