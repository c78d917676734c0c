#include "timing/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace darco::timing {

Cache::Cache(const CacheGeometry &geometry, Cache *next,
             uint32_t mem_latency)
    : geom(geometry), nextLevel(next), memLatency(mem_latency)
{
    panic_if(!isPowerOf2(geom.lineBytes), "line size must be 2^n");
    panic_if(geom.sizeBytes % (geom.lineBytes * geom.ways) != 0,
             "cache size not divisible by way size");
    numSets = geom.sizeBytes / (geom.lineBytes * geom.ways);
    panic_if(!isPowerOf2(numSets), "number of sets must be 2^n");
    panic_if(!isPowerOf2(geom.ways), "associativity must be 2^n");
    lineShift = floorLog2(geom.lineBytes);
    setShift = floorLog2(numSets);
    if (geom.trueLru) {
        // At most half full: every probe sequence ends at an empty
        // slot within a few steps.
        indexBits = floorLog2(numSets) + floorLog2(geom.ways) + 1;
    }
    reset();
}

void
Cache::reset()
{
    ways.assign(static_cast<size_t>(numSets) * geom.ways, Way());
    plruBits.assign(static_cast<size_t>(numSets) * (geom.ways - 1), 0);
    validWays.assign(numSets, 0);
    if (geom.trueLru) {
        lineIndex.assign(size_t{1} << indexBits, IndexSlot());
        lruLinks.resize(static_cast<size_t>(numSets) * (geom.ways + 1));
        for (size_t base = 0; base < lruLinks.size();
             base += geom.ways + 1) {
            for (uint32_t w = 0; w <= geom.ways; ++w)
                lruLinks[base + w] = {w, w};
        }
    }
    lastInSet.assign(numSets, LastAccess());
    stat = CacheStats();
}

uint32_t
Cache::indexHome(uint32_t line) const
{
    // Fibonacci hashing: the top indexBits of line * 2^32/phi spread
    // consecutive lines (the common pattern) across the table.
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(line) * 0x9E3779B97F4A7C15ull) >>
        (64 - indexBits));
}

void
Cache::indexInsert(uint32_t line, uint32_t way)
{
    const uint32_t mask = (1u << indexBits) - 1;
    uint32_t i = indexHome(line);
    while (lineIndex[i].way != kNoWay)
        i = (i + 1) & mask;
    lineIndex[i] = {line, way};
}

void
Cache::indexErase(uint32_t line)
{
    const uint32_t mask = (1u << indexBits) - 1;
    uint32_t hole = indexHome(line);
    while (lineIndex[hole].line != line)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless that would move it before its home slot.
    for (uint32_t j = (hole + 1) & mask; lineIndex[j].way != kNoWay;
         j = (j + 1) & mask) {
        const uint32_t home = indexHome(lineIndex[j].line);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            lineIndex[hole] = lineIndex[j];
            hole = j;
        }
    }
    lineIndex[hole] = IndexSlot();
}

int
Cache::findWay(uint32_t line) const
{
    if (geom.trueLru) {
        const uint32_t mask = (1u << indexBits) - 1;
        for (uint32_t i = indexHome(line);; i = (i + 1) & mask) {
            const IndexSlot &slot = lineIndex[i];
            if (slot.way == kNoWay)
                return -1;
            if (slot.line == line)
                return static_cast<int>(slot.way);
        }
    }
    const uint32_t set = line & (numSets - 1);
    const uint32_t tag = line >> setShift;
    const size_t base = static_cast<size_t>(set) * geom.ways;
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (ways[base + w].valid && ways[base + w].tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

uint32_t
Cache::plruVictim(uint32_t set) const
{
    // Tree-PLRU: bit value 0 means "left side is LRU-er". Walk toward
    // the least recently used leaf.
    const size_t base = static_cast<size_t>(set) * (geom.ways - 1);
    uint32_t node = 0;
    uint32_t levels = floorLog2(geom.ways);
    for (uint32_t l = 0; l < levels; ++l) {
        const uint8_t bit = plruBits[base + node];
        node = 2 * node + 1 + bit;
    }
    return node - (geom.ways - 1);
}

void
Cache::plruTouch(uint32_t set, uint32_t way)
{
    // Flip bits along the path so they point away from `way`.
    const size_t base = static_cast<size_t>(set) * (geom.ways - 1);
    uint32_t node = way + (geom.ways - 1);
    while (node != 0) {
        const uint32_t parent = (node - 1) / 2;
        const bool is_right = (node == 2 * parent + 2);
        plruBits[base + parent] = is_right ? 0 : 1;
        node = parent;
    }
}

uint32_t
Cache::victimWay(uint32_t set) const
{
    if (!geom.trueLru)
        return plruVictim(set);
    // The list tail: sentinel.prev.
    return lruLinks[static_cast<size_t>(set) * (geom.ways + 1) +
                    geom.ways].prev;
}

void
Cache::touchWay(uint32_t set, uint32_t way)
{
    if (!geom.trueLru) {
        plruTouch(set, way);
        return;
    }
    LruLink *links = &lruLinks[static_cast<size_t>(set) * (geom.ways + 1)];
    LruLink &node = links[way];
    LruLink &sentinel = links[geom.ways];
    // Unlink (a no-op for a way not yet in the list), then relink
    // as the head.
    links[node.prev].next = node.next;
    links[node.next].prev = node.prev;
    node.prev = geom.ways;
    node.next = sentinel.next;
    links[sentinel.next].prev = way;
    sentinel.next = way;
}

uint32_t
Cache::fillLine(uint32_t addr, bool dirty, bool charge_fill)
{
    const uint32_t line = addr >> lineShift;
    const uint32_t set = line & (numSets - 1);
    const size_t base = static_cast<size_t>(set) * geom.ways;

    // Prefer the lowest-index invalid way (see validWays).
    uint32_t way = validWays[set];
    if (way < geom.ways) {
        ++validWays[set];
    } else {
        way = victimWay(set);
        const Way &victim = ways[base + way];
        const uint32_t victim_line = (victim.tag << setShift) | set;
        if (geom.trueLru)
            indexErase(victim_line);
        if (victim.dirty) {
            ++stat.writebacks;
            if (nextLevel) {
                // Write back into the next level (no stall: the
                // write buffer hides it; see DESIGN.md).
                bool dummy = false;
                (void)nextLevel->access(victim_line << lineShift, true,
                                        dummy);
            }
        }
    }
    if (geom.trueLru)
        indexInsert(line, way);
    ways[base + way] = {line >> setShift, true, dirty};
    if (charge_fill)
        ++stat.prefetchFills;
    touchWay(set, way);
    return way;
}

uint32_t
Cache::access(uint32_t addr, bool write, bool &miss_out)
{
    ++stat.accesses;
    const uint32_t line = addr >> lineShift;
    const uint32_t set = line & (numSets - 1);
    const uint32_t tag = line >> setShift;

    // Same-line fast path (see lastInSet): every access and fill in
    // this set updates the entry, so a match means the most recent
    // touch of the set was this very way — the skipped re-touch is
    // idempotent and the way cannot have been evicted since.
    LastAccess &last = lastInSet[set];
    if (line == last.line) {
        Way &w = ways[static_cast<size_t>(set) * geom.ways + last.way];
        if (w.valid && w.tag == tag) {
            miss_out = false;
            w.dirty |= write;
            return geom.hitLatency;
        }
    }

    const int way = findWay(line);
    if (way >= 0) {
        miss_out = false;
        touchWay(set, static_cast<uint32_t>(way));
        if (write)
            ways[static_cast<size_t>(set) * geom.ways + way].dirty = true;
        last.line = line;
        last.way = static_cast<uint32_t>(way);
        return geom.hitLatency;
    }

    ++stat.misses;
    miss_out = true;
    uint32_t below;
    if (nextLevel) {
        bool next_miss = false;
        below = nextLevel->access(addr, false, next_miss);
    } else {
        below = memLatency;
    }
    // fillLine may evict another line; record the new occupant so the
    // fast path stays coherent for this set.
    lastInSet[set].line = line;
    lastInSet[set].way = fillLine(addr, write, false);
    return geom.hitLatency + below;
}

bool
Cache::probe(uint32_t addr) const
{
    return findWay(addr >> lineShift) >= 0;
}

void
Cache::prefetch(uint32_t addr)
{
    const uint32_t line = addr >> lineShift;
    if (findWay(line) >= 0)
        return;
    if (nextLevel)
        nextLevel->prefetch(addr);
    // The prefetch fill touches (and may evict within) this set;
    // point the fast path at the prefetched line.
    const uint32_t set = line & (numSets - 1);
    lastInSet[set].line = line;
    lastInSet[set].way = fillLine(addr, false, true);
}

} // namespace darco::timing
