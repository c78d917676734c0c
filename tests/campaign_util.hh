/**
 * @file
 * Helpers shared by the batch and campaign suites (test_batch_runner,
 * test_result_cache, test_fault_tolerance): small budget-bounded
 * jobs, per-test cache directories, and the per-slot bit-identity
 * check all three accept results by.
 */

#ifndef DARCO_TESTS_CAMPAIGN_UTIL_HH
#define DARCO_TESTS_CAMPAIGN_UTIL_HH

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "runner/batch_runner.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "sim/metrics.hh"

namespace darco::testutil {

inline std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

inline sim::MetricsOptions
smallOptions(uint64_t budget = 120'000)
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
 * Per-slot bit-identity between two runs of the same batch: the
 * acceptance currency of the parallel-vs-serial A/B, the cache and
 * the kill-and-resume gate. Both slots must be ok and their whole
 * snapshots identical (sim::diffRunSnapshots).
 */
inline void
expectIdenticalSlots(const std::vector<runner::JobResult> &got,
                     const std::vector<runner::JobResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].uri + strprintf(" (job %zu)", i));
        EXPECT_TRUE(got[i].ok) << got[i].error;
        EXPECT_TRUE(want[i].ok) << want[i].error;
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].suite, want[i].suite);
        EXPECT_EQ(sim::diffRunSnapshots(got[i].snapshot,
                                        want[i].snapshot), "");
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
