#include "runner/result_cache.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "runner/snapshot_codec.hh"

namespace darco::runner {

namespace {

/**
 * Canonical dump of the identity triple. Length-prefixed like the
 * fingerprint's workload field, so no pair of distinct triples can
 * serialize to the same bytes.
 */
std::string
keyDump(const CacheKey &key)
{
    std::string dump;
    dump.reserve(key.engine.size() + key.workloadUri.size() + 64);
    dump += strprintf("engine[%zu]=", key.engine.size());
    dump += key.engine;
    dump += strprintf(";workload[%zu]=", key.workloadUri.size());
    dump += key.workloadUri;
    dump += strprintf(";fp=%016llx;",
                      static_cast<unsigned long long>(key.fingerprint));
    return dump;
}

std::string
serializeEntry(const CacheKey &key, const sim::RunSnapshot &snap)
{
    std::string body = strprintf(
        "{\"darco_cache\":1,\"engine\":\"%s\",\"workload\":\"%s\","
        "\"fp\":\"%016llx\"",
        codec::escape(key.engine).c_str(),
        codec::escape(key.workloadUri).c_str(),
        static_cast<unsigned long long>(key.fingerprint));
    codec::appendSnapshotFields(body, snap);
    return codec::sealLine(body);
}

} // namespace

ResultCache::ResultCache(const std::string &dir) : dir(dir)
{
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
        fatal_kind(ErrKind::Io,
                   "result cache: cannot create directory '%s': %s",
                   dir.c_str(), std::strerror(errno));
    }
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        fatal_kind(ErrKind::Io,
                   "result cache: '%s' is not a directory",
                   dir.c_str());
    }
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return dir + strprintf("/%016llx.dcache",
                           static_cast<unsigned long long>(
                               codec::hashString(keyDump(key))));
}

std::optional<sim::RunSnapshot>
ResultCache::lookup(const CacheKey &key)
{
    const std::string path = entryPath(key);
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return std::nullopt;
    std::string data;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, got);
    std::fclose(f);
    if (const size_t nl = data.find('\n'); nl != std::string::npos)
        data.resize(nl);

    // Authenticate before parsing; any structural problem means the
    // entry does not exist (the re-simulated store will replace it).
    if (!codec::checksummedBody(data)) {
        warn("result cache: rejecting damaged entry '%s'",
             path.c_str());
        return std::nullopt;
    }
    const auto version = codec::getU64(data, "darco_cache");
    const auto engine = codec::getStr(data, "engine");
    const auto workload = codec::getStr(data, "workload");
    const auto fp = codec::getHex64(data, "fp");
    if (!version || *version != 1 || !engine || !workload || !fp)
        return std::nullopt;
    // Exact identity match: a file-name hash collision, an engine
    // bump or a workload rename all degrade to a miss here even
    // though the entry itself is intact.
    if (*engine != key.engine || *workload != key.workloadUri ||
        *fp != key.fingerprint) {
        return std::nullopt;
    }
    sim::RunSnapshot snap;
    if (!codec::parseSnapshotFields(data, snap)) {
        warn("result cache: rejecting unparseable entry '%s'",
             path.c_str());
        return std::nullopt;
    }
    return snap;
}

bool
ResultCache::store(const CacheKey &key, const sim::RunSnapshot &snap)
{
    const std::string line = serializeEntry(key, snap) + "\n";
    const std::string path = entryPath(key);
    // Unique temp name in the same directory (rename must not cross
    // filesystems): pid disambiguates concurrent shards, the sequence
    // number disambiguates threads within this process.
    const std::string tmp = path + strprintf(
        ".tmp.%llu.%llu",
        static_cast<unsigned long long>(::getpid()),
        static_cast<unsigned long long>(
            tmpSeq.fetch_add(1, std::memory_order_relaxed)));

    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("result cache: cannot create '%s': %s", tmp.c_str(),
             std::strerror(errno));
        return false;
    }
    // fclose flushes and is checked: a write error the stdio buffer
    // deferred (EFBIG, ENOSPC, EIO on a network mount) surfaces only
    // there, and a file that did not close cleanly is never published.
    const bool wrote =
        std::fwrite(line.data(), 1, line.size(), f) == line.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("result cache: failed to publish '%s': %s", path.c_str(),
             std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    // Kill-after-Nth-store fault point (the kill-and-resume gate):
    // fires `count` times and dies on the last one, i.e. after the
    // Nth entry has landed under its final name.
    if (faultinject::fire(faultinject::Point::CacheStoreKill) &&
        !faultinject::pending(faultinject::Point::CacheStoreKill)) {
        std::raise(SIGKILL);
    }
    return true;
}

} // namespace darco::runner
