#include "common/faultinject.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace darco::faultinject {

namespace {

constexpr unsigned kNumPoints =
    static_cast<unsigned>(Point::NumPoints);

struct Slot
{
    std::atomic<uint64_t> remaining{0};
    std::atomic<uint64_t> value{0};
};

Slot slots[kNumPoints];

// Number of points with remaining > 0. The single load every
// disarmed fire() pays; maintained on the 0 <-> nonzero transitions
// of each slot.
std::atomic<unsigned> armedCount{0};

const char *const kNames[kNumPoints] = {
    "trace-io-fail",
    "trace-corrupt",
    "midrun-throw",
    "guest-stall",
    "cache-store-kill",
};

} // namespace

bool
anyArmed()
{
    return armedCount.load(std::memory_order_relaxed) != 0;
}

void
arm(Point point, uint64_t count, uint64_t param)
{
    Slot &s = slots[static_cast<unsigned>(point)];
    s.value.store(param, std::memory_order_relaxed);
    const uint64_t old =
        s.remaining.exchange(count, std::memory_order_relaxed);
    if (old == 0 && count > 0)
        armedCount.fetch_add(1, std::memory_order_relaxed);
    else if (old > 0 && count == 0)
        armedCount.fetch_sub(1, std::memory_order_relaxed);
}

void
disarm(Point point)
{
    arm(point, 0, 0);
}

void
disarmAll()
{
    for (unsigned p = 0; p < kNumPoints; ++p)
        disarm(static_cast<Point>(p));
}

bool
fire(Point point)
{
    if (!anyArmed())
        return false;
    Slot &s = slots[static_cast<unsigned>(point)];
    uint64_t cur = s.remaining.load(std::memory_order_relaxed);
    while (cur > 0) {
        if (s.remaining.compare_exchange_weak(
                cur, cur - 1, std::memory_order_relaxed)) {
            if (cur == 1)
                armedCount.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

uint64_t
pending(Point point)
{
    return slots[static_cast<unsigned>(point)].remaining.load(
        std::memory_order_relaxed);
}

uint64_t
param(Point point)
{
    return slots[static_cast<unsigned>(point)].value.load(
        std::memory_order_relaxed);
}

const char *
pointName(Point point)
{
    return kNames[static_cast<unsigned>(point)];
}

void
armFromEnv()
{
    const char *env = std::getenv("DARCO_FAULTINJECT");
    if (!env || !*env)
        return;
    std::string spec(env);
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;

        const size_t c1 = item.find(':');
        const std::string name =
            c1 == std::string::npos ? item : item.substr(0, c1);
        uint64_t count = 1, value = 0;
        if (c1 != std::string::npos) {
            const size_t c2 = item.find(':', c1 + 1);
            count = std::strtoull(item.c_str() + c1 + 1, nullptr, 10);
            if (c2 != std::string::npos)
                value = std::strtoull(item.c_str() + c2 + 1,
                                      nullptr, 10);
        }

        bool matched = false;
        for (unsigned p = 0; p < kNumPoints; ++p) {
            if (name == kNames[p]) {
                arm(static_cast<Point>(p), count, value);
                matched = true;
                break;
            }
        }
        fatal_if(!matched,
                 "DARCO_FAULTINJECT: unknown injection point '%s'",
                 name.c_str());
    }
}

} // namespace darco::faultinject
