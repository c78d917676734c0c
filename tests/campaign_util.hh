/**
 * @file
 * Helpers shared by the campaign suites (test_result_cache,
 * test_fault_tolerance): small budget-bounded jobs, per-test cache
 * directories, and the per-slot bit-identity check both suites
 * accept results by.
 */

#ifndef DARCO_TESTS_CAMPAIGN_UTIL_HH
#define DARCO_TESTS_CAMPAIGN_UTIL_HH

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "profile/profile.hh"
#include "runner/batch_runner.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "sim/metrics.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"

namespace darco::testutil {

inline std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

inline sim::MetricsOptions
smallOptions(uint64_t budget)
{
    sim::MetricsOptions options;
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold = sim::scaledSbThreshold(budget);
    return options;
}

inline runner::BatchJob
makeJob(std::string uri, sim::MetricsOptions options)
{
    runner::BatchJob job;
    job.workload = std::move(uri);
    job.options = std::move(options);
    return job;
}

/** Names of the files in @p dir. */
inline std::vector<std::string>
listFiles(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string file = e->d_name;
            if (file != "." && file != "..")
                names.push_back(file);
        }
        ::closedir(d);
    }
    return names;
}

/** The cache key a batch job resolves to (mirrors the runner). */
inline runner::CacheKey
keyFor(const runner::JobResult &r)
{
    return {r.uri, r.fingerprint,
            std::string(runner::kJournalEngineVersion)};
}

/**
 * A per-test cache directory, emptied of any files a previous run
 * of the suite left behind — a stale entry would turn an expected
 * cold miss into a hit.
 */
inline std::string
freshCacheDir(const std::string &name)
{
    const std::string dir = tempPath(name);
    ::mkdir(dir.c_str(), 0777);
    for (const std::string &file : listFiles(dir))
        ::unlink((dir + "/" + file).c_str());
    return dir;
}

/** Published cache entries in @p dir (temp files do not count). */
inline size_t
countEntries(const std::string &dir)
{
    size_t n = 0;
    for (const std::string &file : listFiles(dir)) {
        n += file.size() > 7 &&
             file.compare(file.size() - 7, 7, ".dcache") == 0;
    }
    return n;
}

/**
 * Per-slot bit-identity: the acceptance currency of the cache, the
 * kill-and-resume gate and dedup. Compares every snapshot component,
 * including the optional isolation pipes and the profile.
 */
inline void
expectIdenticalSlots(const std::vector<runner::JobResult> &got,
                     const std::vector<runner::JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    const auto pipe = [](const std::optional<timing::PipeStats> &a,
                         const std::optional<timing::PipeStats> &b) {
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(timing::diffStats(*a, *b), "");
        }
    };
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].uri + strprintf(" (job %zu)", i));
        const sim::RunSnapshot &g = got[i].snapshot;
        const sim::RunSnapshot &w = want[i].snapshot;
        EXPECT_TRUE(got[i].ok);
        EXPECT_TRUE(want[i].ok);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].suite, want[i].suite);
        EXPECT_EQ(g.result.guestRetired, w.result.guestRetired);
        EXPECT_EQ(g.result.cycles, w.result.cycles);
        EXPECT_EQ(g.result.halted, w.result.halted);
        EXPECT_EQ(g.timingCore, w.timingCore);
        EXPECT_EQ(timing::diffStats(g.stats, w.stats), "");
        pipe(g.tolOnly, w.tolOnly);
        pipe(g.appOnly, w.appOnly);
        pipe(g.tolModule, w.tolModule);
        EXPECT_EQ(tol::diffTolStats(g.tolStats, w.tolStats), "");
        ASSERT_EQ(g.profile.has_value(), w.profile.has_value());
        if (g.profile) {
            EXPECT_EQ(profile::diffProfiles(*g.profile, *w.profile),
                      "");
        }
        // Figure metrics are pure functions of the snapshot
        // (sim::collectMetrics); spot-check the headline fields.
        EXPECT_EQ(got[i].metrics.dynSbm, want[i].metrics.dynSbm);
        EXPECT_EQ(got[i].metrics.cycles, want[i].metrics.cycles);
        EXPECT_DOUBLE_EQ(got[i].metrics.tolCycles,
                         want[i].metrics.tolCycles);
    }
}

} // namespace darco::testutil

#endif // DARCO_TESTS_CAMPAIGN_UTIL_HH
