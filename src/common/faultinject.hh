/**
 * @file
 * Fault-injection hook points for the robustness test suite.
 *
 * A small set of named injection points is compiled into the engine
 * permanently; each is a single relaxed atomic load behind a global
 * armed-count fast gate, and every hook sits on a cold path (file
 * open, dispatch-loop service, cache store), so the disarmed cost
 * is effectively zero in release builds — verified by the
 * engine_speed perf gate rather than by compiling the hooks out,
 * which would leave the recovery paths untested in exactly the build
 * that ships.
 *
 * Arming is count-limited: arm(point, n) makes the next n fire()
 * calls at that point report true, then the point disarms itself.
 * That models both "fail once, then recover" (transient I/O) and
 * "trigger on the Nth event" (kill the process after N result-cache
 * stores — pending() distinguishes the final firing).
 *
 * Tests arm points in-process; child processes (the kill-and-resume
 * e2e) are armed through the DARCO_FAULTINJECT environment variable,
 * parsed by armFromEnv():  "point:count[:param][,point:count...]".
 */

#ifndef DARCO_COMMON_FAULTINJECT_HH
#define DARCO_COMMON_FAULTINJECT_HH

#include <cstdint>

namespace darco::faultinject {

enum class Point : uint8_t {
    TraceIoFail,    ///< trace read: fail the file I/O (transient)
    TraceCorrupt,   ///< trace read: flip byte `param` after the read
    MidRunThrow,    ///< TOL dispatch loop: fatal() mid-run
    GuestStall,     ///< Runtime::run: refill the budget (livelock)
    CacheStoreKill, ///< result cache: SIGKILL after Nth store lands
    NumPoints,
};

/** Fast gate: true iff any point is currently armed. */
bool anyArmed();

/** Arm @p point for the next @p count firings, with optional data. */
void arm(Point point, uint64_t count = 1, uint64_t param = 0);

void disarm(Point point);
void disarmAll();

/**
 * Consume one armed firing of @p point: true while the point is
 * armed (decrements its remaining count), false once exhausted or
 * never armed. The disarmed path is one relaxed atomic load.
 */
bool fire(Point point);

/** Remaining firings (0 = exhausted/never armed). */
uint64_t pending(Point point);

/** The `param` value the point was armed with. */
uint64_t param(Point point);

/** Parse DARCO_FAULTINJECT and arm the listed points (no-op when
 *  unset; unknown names fatal() — a typo must not silently pass). */
void armFromEnv();

/** Canonical name of @p point (the armFromEnv spelling). */
const char *pointName(Point point);

} // namespace darco::faultinject

#endif // DARCO_COMMON_FAULTINJECT_HH
