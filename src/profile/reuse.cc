#include "profile/reuse.hh"

#include <algorithm>

namespace darco::profile {

namespace {

/** Smallest tree worth allocating; grows by doubling. */
constexpr uint64_t kInitialCapacity = 1024;

/**
 * Distances below this bound are counted in ReuseStack::smallCounts
 * (at most 128 KiB); larger ones go straight to the histogram map.
 */
constexpr uint64_t kSmallDistances = uint64_t{1} << 14;

} // namespace

ReuseStack::ReuseStack() : capacity(kInitialCapacity)
{
    fenwick.assign(capacity + 1, 0);
}

ReuseHistogram
ReuseStack::histogram() const
{
    ReuseHistogram merged = hist;
    for (uint64_t d = 0; d < smallCounts.size(); ++d) {
        if (smallCounts[d])
            merged.counts[d] = smallCounts[d];
    }
    return merged;
}

uint64_t
ReuseStack::prefix(uint64_t i) const
{
    uint64_t sum = 0;
    for (; i > 0; i -= i & (~i + 1))
        sum += fenwick[i];
    return sum;
}

void
ReuseStack::update(uint64_t i, int64_t delta)
{
    for (; i <= capacity; i += i & (~i + 1))
        fenwick[i] = static_cast<uint64_t>(
            static_cast<int64_t>(fenwick[i]) + delta);
}

void
ReuseStack::compact()
{
    // Collect the live marks, oldest first, and hand out fresh
    // consecutive time slots in the same relative order — relative
    // recency is all the distance query ever reads, so the histogram
    // is unaffected (the brute-force A/B tests cross this path
    // deliberately). The line being accessed holds the dead sentinel
    // 0 and takes its new slot after the rebuild.
    std::vector<std::pair<uint64_t, uint64_t *>> live;
    live.reserve(lastAccess.size());
    for (auto &[line, time] : lastAccess) {
        if (time)
            live.emplace_back(time, &time);
    }
    std::sort(live.begin(), live.end());

    // Capacity never shrinks: every line ever touched keeps one live
    // mark, so live.size() is monotone and a capacity that doubled
    // (live > capacity/4 at the time) can never fall back below the
    // threshold that grew it.
    fenwick.assign(capacity + 1, 0);
    clock = 0;
    for (const auto &[time, slot] : live) {
        *slot = ++clock;
        update(clock, +1);
    }
}

void
ReuseStack::access(uint64_t line)
{
    const auto [it, cold] = lastAccess.try_emplace(line, 0);
    if (cold) {
        ++hist.coldAccesses;
    } else {
        // Marked times newer than this line's own mark are exactly
        // the distinct lines touched since: each tracked line holds
        // one mark, at its most recent access.
        const uint64_t distance =
            static_cast<uint64_t>(lastAccess.size()) - prefix(it->second);
        if (distance < kSmallDistances) {
            if (distance >= smallCounts.size())
                smallCounts.resize(distance + 1, 0);
            ++smallCounts[distance];
        } else {
            ++hist.counts[distance];
        }
        update(it->second, -1);
        // The old mark is dead and must not be resurrected by a
        // compact() below.
        it->second = 0;
    }

    if (clock == capacity) {
        // Out of time slots. If most marks are dead (re-accessed
        // lines moved forward), renumber in place; otherwise the
        // live set genuinely needs more room.
        if (lastAccess.size() <= capacity / 2) {
            compact();
        } else {
            // Doubling a Fenwick tree in place: new index 2C is the
            // one new node whose range (0, 2C] covers existing data —
            // its value is the whole current sum; every other new
            // index covers a still-empty subrange of (C, 2C].
            const uint64_t total = prefix(capacity);
            capacity *= 2;
            fenwick.resize(capacity + 1, 0);
            fenwick[capacity] = total;
        }
    }
    it->second = ++clock;
    update(clock, +1);
}

} // namespace darco::profile
