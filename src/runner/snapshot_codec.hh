/**
 * @file
 * Canonical flat-hex serialization of `sim::RunSnapshot` plus the
 * checksummed single-line envelope the result cache
 * (runner/result_cache.hh, one file per (workload, config, engine)
 * key) stores completed runs in.
 *
 * The cache's kill-and-resume gate and its verify-hits audit both
 * hinge on a parsed snapshot being indistinguishable from the run
 * that produced it (`timing::diffStats` / `tol::diffTolStats` /
 * `profile::diffProfiles` all empty). Keeping the codec apart from
 * the cache's file handling lets the round-trip be tested on its
 * own.
 *
 * Serialization rules (docs/robustness.md §4, docs/campaigns.md §2):
 *
 *  - `PipeStats` is all counters and fixed-size arrays; it
 *    round-trips as a raw-byte hex blob (static_assert-guarded
 *    trivially-copyable).
 *  - `RunProfile` serializes as a flat stream of u64 hex fields with
 *    length-prefixed maps; std::map iteration order is the sort
 *    order, so two equal profiles serialize identically (canonical).
 *  - `TolStats` counters are named decimal fields in a fixed order;
 *    the static mode map is sorted (eip, mode) pairs.
 *  - The envelope is one line of JSON-shaped key/value text sealed
 *    with an FNV-1a checksum over every byte of the body
 *    (`sealLine`). Readers authenticate before parsing
 *    (`checksummedBody`): a torn, truncated or bit-flipped line can
 *    never half-parse into a plausible snapshot.
 */

#ifndef DARCO_RUNNER_SNAPSHOT_CODEC_HH
#define DARCO_RUNNER_SNAPSHOT_CODEC_HH

#include <optional>
#include <string>

#include "sim/metrics.hh"

namespace darco::runner::codec {

/** FNV-1a over the bytes of @p s (the envelope checksum hash). */
uint64_t hashString(const std::string &s);

/** Minimal JSON string escaping: backslash, quote, control bytes. */
std::string escape(const std::string &s);

/**
 * Whole-line key lookup parsers. Safe despite values sharing the
 * line: every serialized value is either escaped (so the raw byte
 * sequence `"key":` cannot appear inside it) or hex/decimal (no
 * quotes at all), and each writer's key set is unique by
 * construction.
 */
std::optional<uint64_t> getU64(const std::string &line, const char *key);
std::optional<std::string> getStr(const std::string &line,
                                  const char *key);
/** 16-hex-digit string value parsed as a u64. */
std::optional<uint64_t> getHex64(const std::string &line,
                                 const char *key);

/**
 * Append the snapshot's serialized fields to @p body (leading comma
 * included): result scalars, timing core, the PipeStats blob(s), the
 * optional profile, every TolStats counter and the static mode map.
 * The caller owns the envelope (opening `{`, identity fields, seal).
 */
void appendSnapshotFields(std::string &body,
                          const sim::RunSnapshot &snap);

/**
 * Parse the fields appendSnapshotFields wrote back out of an
 * authenticated @p line. Returns false on any structural problem
 * (missing key, bad hex, wrong blob size) — callers treat that as
 * "entry does not exist", never as a partial snapshot.
 */
bool parseSnapshotFields(const std::string &line,
                         sim::RunSnapshot &snap);

/**
 * Seal @p body into a complete stored line: appends
 * `,"csum":"<fnv1a64 of body>"}`. @p body must start with `{` and
 * contain every field already serialized.
 */
std::string sealLine(const std::string &body);

/**
 * Authenticate a stored line: locate the trailing csum field, check
 * it against the body it covers, and return the body (everything
 * before the csum) — or nullopt for torn/truncated/bit-damaged
 * lines. Parsing only ever runs on an authenticated body.
 */
std::optional<std::string> checksummedBody(const std::string &line);

} // namespace darco::runner::codec

#endif // DARCO_RUNNER_SNAPSHOT_CODEC_HH
