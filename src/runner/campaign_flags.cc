#include "runner/campaign_flags.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace darco::runner {

const char *const kCampaignFlagsHelp =
    "  --jobs=N          worker threads (0 = hardware threads, 1 = one\n"
    "                    job at a time on the calling thread; results\n"
    "                    are identical either way)\n"
    "  --timeout=MS      per-job wall-clock watchdog: a run past the\n"
    "                    deadline is cancelled and fails as Timeout\n"
    "                    with partial metrics\n"
    "  --retries=N       re-run transiently failed jobs up to N times\n"
    "                    (bounded exponential backoff)\n"
    "  --cache-dir=DIR   content-addressed result cache: completed\n"
    "                    (workload, config) runs are stored and a\n"
    "                    warm re-run simulates nothing; re-running a\n"
    "                    crashed campaign with the same DIR resumes it\n"
    "                    (docs/campaigns.md)\n"
    "  --shard=K/N       execute only jobs at index i with i % N == K;\n"
    "                    N runners sharing a cache dir cover the\n"
    "                    campaign exactly once\n"
    "  --verify-hits=F   re-simulate fraction F in [0,1] of cache hits\n"
    "                    and fail unless bit-identical (needs\n"
    "                    --cache-dir)\n"
    "  --require-hits    fail every job the cache does not serve,\n"
    "                    without simulating it (warm-rerun\n"
    "                    assertion; needs --cache-dir)\n";

namespace {

/** Value of @p arg after @p prefix, or nullptr if it does not match. */
const char *
flagValue(const std::string &arg, const char *prefix)
{
    const std::string p = prefix;
    return arg.compare(0, p.size(), p) == 0 ? arg.c_str() + p.size()
                                            : nullptr;
}

} // namespace

uint64_t
parseCount(const char *flag, const std::string &text, uint64_t max)
{
    fatal_if(text.empty() || text[0] < '0' || text[0] > '9',
             "%s expects a non-negative integer, got '%s'", flag,
             text.c_str());
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    fatal_if(*end != '\0', "%s expects an integer, got '%s'", flag,
             text.c_str());
    fatal_if(errno == ERANGE || v > max,
             "%s value '%s' is out of range", flag, text.c_str());
    return v;
}

std::vector<std::string>
parseCampaignFlags(int argc, const char *const *argv, BatchConfig &config)
{
    constexpr uint64_t kMaxUnsigned =
        std::numeric_limits<unsigned>::max();
    bool verify_set = false;
    std::vector<std::string> rest;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (const char *v = flagValue(arg, "--jobs=")) {
            config.workers = static_cast<unsigned>(
                parseCount("--jobs", v, kMaxUnsigned));
        } else if (const char *v = flagValue(arg, "--timeout=")) {
            config.timeoutMs = parseCount(
                "--timeout", v, std::numeric_limits<uint64_t>::max());
        } else if (const char *v = flagValue(arg, "--retries=")) {
            config.retries = static_cast<unsigned>(
                parseCount("--retries", v, kMaxUnsigned));
        } else if (const char *v = flagValue(arg, "--shard=")) {
            const std::string spec = v;
            const size_t slash = spec.find('/');
            fatal_if(slash == std::string::npos,
                     "--shard expects K/N (e.g. --shard=0/3), got '%s'",
                     v);
            const uint64_t index = parseCount(
                "--shard", spec.substr(0, slash), kMaxUnsigned);
            const uint64_t count = parseCount(
                "--shard", spec.substr(slash + 1), kMaxUnsigned);
            fatal_if(count == 0 || index >= count,
                     "--shard=%s: index must be < count", v);
            config.shard = {static_cast<unsigned>(index),
                            static_cast<unsigned>(count)};
        } else if (const char *v = flagValue(arg, "--cache-dir=")) {
            fatal_if(*v == '\0', "--cache-dir expects a directory");
            config.cacheDir = v;
        } else if (const char *v = flagValue(arg, "--verify-hits=")) {
            char *end = nullptr;
            const double f = std::strtod(v, &end);
            // Written so that NaN fails the range test too.
            fatal_if(end == v || *end != '\0' ||
                         !(f >= 0.0 && f <= 1.0),
                     "--verify-hits expects a fraction in [0,1], got "
                     "'%s'",
                     v);
            config.verifyHitFraction = f;
            verify_set = true;
        } else if (arg == "--require-hits") {
            config.requireHits = true;
        } else {
            rest.push_back(arg);
        }
    }
    fatal_if((verify_set || config.requireHits) &&
                 config.cacheDir.empty(),
             "--verify-hits and --require-hits need --cache-dir: they "
             "concern cache hits, and without a cache there are none");
    return rest;
}

bool
needsBatchRunner(const BatchConfig &config)
{
    return config.timeoutMs > 0 || config.retries > 0 ||
           config.shard.count > 1 || !config.cacheDir.empty();
}

} // namespace darco::runner
