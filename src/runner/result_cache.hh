/**
 * @file
 * Content-addressed, on-disk cache of completed `sim::RunSnapshot`s,
 * keyed on (workload URI identity, config fingerprint, engine
 * version). See docs/campaigns.md.
 *
 * The cache turns a repeated campaign from O(campaign) into O(delta):
 * a warm re-run of an identical sweep performs zero simulations. It
 * can do this *safely* only because the engine is deterministic — a
 * cached snapshot is not an approximation of what a fresh run would
 * produce, it is bit-identical to it, and the opt-in verify-hits mode
 * (runner/batch_runner.hh) re-simulates a fraction of hits to prove
 * exactly that.
 *
 * Key and addressing. An entry's identity is the triple
 * (workload URI, runner::configFingerprint, engine version). The
 * fingerprint already folds in the workload *string* and every
 * effective MetricsOptions field, so any config change misses; the
 * URI and engine version are carried separately so that workload
 * renames and engine bumps invalidate even across fingerprint-hash
 * collisions. The triple is serialized into a canonical
 * length-prefixed dump, FNV-1a hashed, and the 16-hex-digit hash is
 * the file name. On lookup the stored triple is compared field by
 * field against the requested key — a file-name collision degrades to
 * a miss, never to a wrong snapshot.
 *
 * Entry format. One sealed line in the snapshot codec
 * (runner/snapshot_codec.hh):
 *
 *     {"darco_cache":1,"engine":"...","workload":"...",
 *      "fp":"<16 hex>",<snapshot fields>,"csum":"<16 hex>"}
 *
 * Readers authenticate the checksum before parsing, so torn,
 * truncated or bit-damaged entries are rejected structurally and the
 * job re-simulates (the fresh store then replaces the bad file).
 *
 * Concurrency. Writes are atomic rename-on-commit: the entry is
 * fully written and flushed to a unique temp name in the cache
 * directory, then rename(2)'d over the final name. Concurrent shards
 * sharing one directory therefore never observe a torn entry — they
 * see either no file or a complete one — and a lost rename race just
 * means the last writer's (bit-identical) entry wins.
 *
 * Crash contract. The cache is also how a crashed campaign resumes:
 * re-run the same command with the same cache directory, and every
 * job whose entry landed before the crash is a hit. A store that
 * fails (full disk, quota, a write error that only fclose reports)
 * warns and returns false; the job is still reported ok, because
 * its result is in memory. Nothing is published under the final
 * name unless every byte was written and the file closed cleanly,
 * so a failed or interrupted store leaves under that name either no
 * entry or the previous complete one. A store that did not land therefore costs
 * the resumed run one re-simulation of that job, and the
 * deterministic engine makes that re-simulation bit-identical. A
 * crash can cost simulation time; it can never change a result.
 */

#ifndef DARCO_RUNNER_RESULT_CACHE_HH
#define DARCO_RUNNER_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "sim/metrics.hh"

namespace darco::runner {

/** Identity of one cached result. */
struct CacheKey
{
    /** Resolved workload URI (workloads/source.hh identity). */
    std::string workloadUri;
    /** runner::configFingerprint of the job's effective config. */
    uint64_t fingerprint = 0;
    /** Engine version pin (kJournalEngineVersion for live runs,
     *  runner/journal.hh). */
    std::string engine;
};

class ResultCache
{
  public:
    /**
     * Open (creating if missing) the cache directory. An unusable
     * directory is a configuration error and fatals: silently
     * degrading to 0% hits would defeat the point of pointing a
     * campaign at a cache.
     */
    explicit ResultCache(const std::string &dir);

    /**
     * Look the key up. Returns the stored snapshot only if the entry
     * authenticates, parses, and its stored identity triple matches
     * @p key exactly; anything else — no file, torn line, checksum
     * mismatch, identity mismatch — is a miss.
     */
    std::optional<sim::RunSnapshot> lookup(const CacheKey &key);

    /**
     * Publish a snapshot under @p key via atomic rename-on-commit.
     * Best-effort: failures warn and return false, leaving no file
     * under the temp name or the final name (the result is still in
     * memory; only future reuse is lost). The cache-store-kill fault
     * point raises SIGKILL after the Nth successful rename.
     */
    bool store(const CacheKey &key, const sim::RunSnapshot &snap);

    /** Full path of the entry file addressing @p key. */
    std::string entryPath(const CacheKey &key) const;

    const std::string &directory() const { return dir; }

  private:
    std::string dir;
    /** Disambiguates temp names within this process. */
    std::atomic<uint64_t> tmpSeq{0};
};

} // namespace darco::runner

#endif // DARCO_RUNNER_RESULT_CACHE_HH
