/**
 * @file
 * Batch-execution gates (docs/concurrency.md): parallel sweeps must
 * be bit-identical to serial ones, results must land in job-index
 * order under any scheduling, a failing job must never take the
 * batch down, and the process-global services jobs share (workload
 * registry, trace capture) must be thread-safe. This suite is also
 * what the CI ThreadSanitizer job runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <thread>

#include "common/logging.hh"
#include "profile/profile.hh"
#include "runner/batch_runner.hh"
#include "runner/campaign_flags.hh"
#include "sim/metrics.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "trace/trace.hh"
#include "workloads/source.hh"

using namespace darco;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    FILE *fp = std::fopen(path.c_str(), "rb");
    EXPECT_NE(fp, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (!fp)
        return bytes;
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(fp);
    return bytes;
}

/** The representative synthetic set: one per paper suite. */
const char *kSuiteReps[] = {"464.h264ref", "436.cactusADM",
                            "104.novis_explosions", "005.h264enc"};

runner::BatchConfig
withWorkers(unsigned workers)
{
    runner::BatchConfig cfg;
    cfg.workers = workers;
    return cfg;
}

sim::MetricsOptions
smallOptions(uint64_t budget = 120'000)
{
    sim::MetricsOptions options;
    options.guestBudget = budget;
    options.tolConfig.bbToSbThreshold = sim::scaledSbThreshold(budget);
    return options;
}

runner::BatchJob
makeJob(std::string uri, sim::MetricsOptions options)
{
    runner::BatchJob job;
    job.workload = std::move(uri);
    job.options = std::move(options);
    return job;
}

/** Slot-by-slot bit-identity between two runs of the same batch. */
void
expectIdenticalResults(const std::vector<runner::JobResult> &a,
                       const std::vector<runner::JobResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].uri);
        EXPECT_EQ(a[i].ok, b[i].ok);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].snapshot.result.guestRetired,
                  b[i].snapshot.result.guestRetired);
        EXPECT_EQ(a[i].snapshot.result.cycles,
                  b[i].snapshot.result.cycles);
        EXPECT_EQ(a[i].snapshot.result.halted,
                  b[i].snapshot.result.halted);
        EXPECT_EQ(timing::diffStats(a[i].snapshot.stats,
                                    b[i].snapshot.stats), "");
        EXPECT_EQ(tol::diffTolStats(a[i].snapshot.tolStats,
                                    b[i].snapshot.tolStats), "");
        // Derived figure metrics are pure functions of the stats,
        // but spot-check the headline fields anyway.
        EXPECT_EQ(a[i].metrics.dynSbm, b[i].metrics.dynSbm);
        EXPECT_DOUBLE_EQ(a[i].metrics.tolCycles, b[i].metrics.tolCycles);
        // Characterization profiles ride the same contract: both
        // absent, or both present and bit-identical.
        ASSERT_EQ(a[i].snapshot.profile.has_value(),
                  b[i].snapshot.profile.has_value());
        if (a[i].snapshot.profile) {
            EXPECT_EQ(profile::diffProfiles(*a[i].snapshot.profile,
                                            *b[i].snapshot.profile),
                      "");
        }
    }
}

// ---------------------------------------------------------------------
// Parallel-vs-serial bit-identity (the acceptance contract).
// ---------------------------------------------------------------------

TEST(BatchAB, ParallelMatchesSerialOnSyntheticWorkloads)
{
    // Mixed batch: four suites x two configs, so jobs differ in both
    // workload and options.
    std::vector<runner::BatchJob> batch;
    for (const char *name : kSuiteReps) {
        batch.push_back(makeJob(workloads::syntheticUri(name),
                                smallOptions(120'000)));
        runner::BatchJob tweaked;
        tweaked.workload = workloads::syntheticUri(name);
        tweaked.options = smallOptions(90'000);
        tweaked.options.tolConfig.bbToSbThreshold = 2000;
        batch.push_back(std::move(tweaked));
    }

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);

    for (const runner::JobResult &r : serial)
        EXPECT_TRUE(r.ok) << r.error;
    expectIdenticalResults(serial, parallel);

    // And the serial path itself equals the pre-runner reference
    // (sim::snapshotRun), so the runner changed nothing end to end.
    for (size_t i = 0; i < batch.size(); ++i) {
        const sim::RunSnapshot ref = sim::snapshotRun(
            workloads::resolveWorkload(batch[i].workload),
            batch[i].options);
        EXPECT_EQ(ref.result.guestRetired,
                  serial[i].snapshot.result.guestRetired);
        EXPECT_EQ(ref.result.cycles, serial[i].snapshot.result.cycles);
        EXPECT_EQ(timing::diffStats(ref.stats,
                                    serial[i].snapshot.stats), "");
        EXPECT_EQ(tol::diffTolStats(ref.tolStats,
                                    serial[i].snapshot.tolStats), "");
    }
}

TEST(BatchAB, ParallelMatchesSerialProfiles)
{
    // Profiled sweeps (MetricsOptions::profile) must keep the
    // bit-identity contract: every worker count yields the same
    // reuse histograms and branch profiles in every slot.
    std::vector<runner::BatchJob> batch;
    for (const char *name : kSuiteReps) {
        sim::MetricsOptions options = smallOptions(90'000);
        options.profile = true;
        batch.push_back(makeJob(workloads::syntheticUri(name),
                                options));
    }

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);

    for (const runner::JobResult &r : serial) {
        EXPECT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(r.snapshot.profile.has_value()) << r.uri;
        EXPECT_GT(r.snapshot.profile->dataReuse.totalAccesses(), 0u)
            << r.uri;
        EXPECT_TRUE(r.metrics.haveProfile);
    }
    expectIdenticalResults(serial, parallel);
}

TEST(BatchAB, ParallelMatchesSerialOnTraceWorkloads)
{
    // Capture two workloads, then replay them through the batch
    // runner serially and in parallel: every slot bit-identical and
    // every in-file determinism pin reproduced (a pin mismatch would
    // fail the job, so r.ok doubles as the pin check).
    std::vector<runner::BatchJob> batch;
    std::vector<std::string> paths;
    for (const char *name : {"464.h264ref", "429.mcf"}) {
        const std::string path =
            tempPath(std::string("batch_") + name + ".dtrc");
        sim::MetricsOptions capture = smallOptions(100'000);
        capture.captureTracePath = path;
        sim::snapshotRun(
            workloads::resolveWorkload(workloads::syntheticUri(name)),
            capture);
        paths.push_back(path);
        batch.push_back(makeJob(workloads::traceUri(path),
                                sim::MetricsOptions{}));
    }

    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    const auto parallel = runner::BatchRunner(withWorkers(4)).run(batch);
    for (const runner::JobResult &r : parallel)
        EXPECT_TRUE(r.ok) << r.error;  // includes the pin check
    expectIdenticalResults(serial, parallel);

    for (const std::string &path : paths)
        std::remove(path.c_str());
}

TEST(BatchRunner, ExpectedPinsEnforced)
{
    // A correct expectedPins passes; a perturbed one fails the job
    // with a structured report naming the field.
    const runner::BatchJob probe = makeJob(
        workloads::syntheticUri("462.libquantum"), smallOptions());
    const auto probed = runner::BatchRunner(withWorkers(1)).run({probe});
    ASSERT_TRUE(probed[0].ok) << probed[0].error;

    trace::TracePins pins;
    pins.guestRetired = probed[0].snapshot.result.guestRetired;
    pins.simCycles = probed[0].snapshot.result.cycles;
    pins.hostRecords = probed[0].snapshot.stats.records;
    const tol::TolStats &ts = probed[0].snapshot.tolStats;
    pins.dynIm = ts.dynIm;
    pins.dynBbm = ts.dynBbm;
    pins.dynSbm = ts.dynSbm;
    pins.bbsTranslated = ts.bbsTranslated;
    pins.sbsCreated = ts.sbsCreated;
    pins.guestIndirectBranches = ts.guestIndirectBranches;

    runner::BatchJob pinned = probe;
    pinned.expectedPins = pins;
    runner::BatchJob broken = probe;
    broken.expectedPins = pins;
    broken.expectedPins->simCycles += 1;

    const auto results =
        runner::BatchRunner(withWorkers(2)).run({pinned, broken});
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("sim_cycles"), std::string::npos)
        << results[1].error;
}

TEST(BatchRunner, OverridesWinOverCaptureRecipe)
{
    // A budget override must beat a trace's capture recipe (the
    // command-line precedence run_benchmark documents). The override
    // changes the functional execution, so in-file pins are off.
    const std::string path = tempPath("override.dtrc");
    sim::MetricsOptions capture = smallOptions(100'000);
    capture.captureTracePath = path;
    sim::snapshotRun(workloads::resolveWorkload(
                         workloads::syntheticUri("429.mcf")),
                     capture);

    runner::BatchJob shortened =
        makeJob(workloads::traceUri(path), sim::MetricsOptions{});
    shortened.checkCapturedPins = false;
    shortened.guestBudgetOverride = 40'000;
    const auto results =
        runner::BatchRunner(withWorkers(1)).run({shortened});
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_LT(results[0].snapshot.result.guestRetired, 50'000u);

    // And with pin checking left on, the same override fails the
    // job with a structured pin report instead of bad numbers.
    runner::BatchJob conflicted = shortened;
    conflicted.checkCapturedPins = true;
    const auto conflicted_results =
        runner::BatchRunner(withWorkers(1)).run({conflicted});
    EXPECT_FALSE(conflicted_results[0].ok);
    EXPECT_NE(conflicted_results[0].error.find("pin mismatch"),
              std::string::npos) << conflicted_results[0].error;

    // A replay on the other timing core reproduces every counter
    // (the cores are bit-identical) but is a different experiment
    // than the capture pinned: only the timing_core pin catches it.
    runner::BatchJob refcore =
        makeJob(workloads::traceUri(path), sim::MetricsOptions{});
    refcore.options.timingConfig.eventCore = false;
    const auto refcore_results =
        runner::BatchRunner(withWorkers(1)).run({refcore});
    EXPECT_FALSE(refcore_results[0].ok);
    EXPECT_NE(refcore_results[0].error.find("timing_core"),
              std::string::npos) << refcore_results[0].error;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Scheduling properties: order, failure isolation, oversubscription.
// ---------------------------------------------------------------------

TEST(BatchRunner, ResultsLandInJobIndexOrder)
{
    // Jobs with very different runtimes (budgets 20k..400k) so
    // completion order differs from submission order; slots must
    // still follow submission order.
    std::vector<runner::BatchJob> batch;
    std::vector<std::string> expect_names;
    const uint64_t budgets[] = {400'000, 20'000, 250'000, 40'000,
                                150'000, 30'000};
    for (size_t i = 0; i < std::size(budgets); ++i) {
        const char *name = kSuiteReps[i % std::size(kSuiteReps)];
        batch.push_back(makeJob(workloads::syntheticUri(name),
                                smallOptions(budgets[i])));
        expect_names.push_back(name);
    }
    const auto results = runner::BatchRunner(withWorkers(3)).run(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].name, expect_names[i]);
        EXPECT_EQ(results[i].uri, batch[i].workload);
    }
}

TEST(BatchRunner, FailingJobsReportWithoutAbortingTheBatch)
{
    // Three failure shapes between healthy jobs: unknown synthetic
    // benchmark, unknown scheme, unreadable trace file. Each fails
    // structurally (fatal() converted to a JobResult error); the
    // healthy jobs still produce correct metrics.
    std::vector<runner::BatchJob> batch;
    batch.push_back(makeJob(workloads::syntheticUri("462.libquantum"),
                            smallOptions()));
    batch.push_back(makeJob("source://synthetic/no.such.benchmark",
                            smallOptions()));
    batch.push_back(makeJob("source://nosuchscheme/x", smallOptions()));
    batch.push_back(makeJob("source://trace/" + tempPath("missing.dtrc"),
                            smallOptions()));
    batch.push_back(makeJob(workloads::syntheticUri("429.mcf"),
                            smallOptions()));

    const auto results = runner::BatchRunner(withWorkers(4)).run(batch);
    ASSERT_EQ(results.size(), 5u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown synthetic benchmark"),
              std::string::npos) << results[1].error;
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("unknown scheme"),
              std::string::npos) << results[2].error;
    EXPECT_FALSE(results[3].ok);
    EXPECT_TRUE(results[4].ok) << results[4].error;

    // The healthy slots equal a clean serial run of the same jobs.
    const auto clean = runner::BatchRunner(withWorkers(1))
                           .run({batch[0], batch[4]});
    EXPECT_EQ(timing::diffStats(results[0].snapshot.stats,
                                clean[0].snapshot.stats), "");
    EXPECT_EQ(timing::diffStats(results[4].snapshot.stats,
                                clean[1].snapshot.stats), "");
}

TEST(BatchRunner, OversubscriptionJobsFarExceedWorkers)
{
    // 24 jobs on 3 workers: the FIFO cursor must hand out every job
    // exactly once and the batch must complete with ordered slots.
    std::vector<runner::BatchJob> batch;
    for (int rep = 0; rep < 6; ++rep) {
        for (const char *name : kSuiteReps) {
            batch.push_back(makeJob(workloads::syntheticUri(name),
                                    smallOptions(25'000)));
        }
    }
    ASSERT_EQ(batch.size(), 24u);
    const auto parallel = runner::BatchRunner(withWorkers(3)).run(batch);
    const auto serial = runner::BatchRunner(withWorkers(1)).run(batch);
    expectIdenticalResults(serial, parallel);
    // Repeats of one workload are the same deterministic simulation.
    EXPECT_EQ(timing::diffStats(parallel[0].snapshot.stats,
                                parallel[20].snapshot.stats), "");
}

TEST(BatchRunner, DuplicateCapturePathsRejected)
{
    std::vector<runner::BatchJob> batch;
    for (int i = 0; i < 2; ++i) {
        runner::BatchJob job = makeJob(
            workloads::syntheticUri("429.mcf"), smallOptions());
        job.options.captureTracePath = tempPath("dup.dtrc");
        batch.push_back(std::move(job));
    }
    ScopedFatalThrow fatal_throws;
    EXPECT_THROW(runner::BatchRunner(withWorkers(2)).run(batch),
                 FatalError);
}

// ---------------------------------------------------------------------
// Campaign flags: one parser for every batch-capable command line.
// ---------------------------------------------------------------------

namespace {

/** parseCampaignFlags over a literal argument list (argv[0] added). */
std::vector<std::string>
parseFlags(std::vector<std::string> args, runner::BatchConfig &config)
{
    args.insert(args.begin(), "tool");
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return runner::parseCampaignFlags(static_cast<int>(argv.size()),
                                      argv.data(), config);
}

} // namespace

TEST(CampaignFlags, ParsesIntoBatchConfigAndPassesTheRestThrough)
{
    runner::BatchConfig config;
    const std::vector<std::string> rest = parseFlags(
        {"--budget=5", "--jobs=3", "--timeout=250", "--retries=2",
         "--shard=1/3", "--cache-dir=some/dir", "--verify-hits=0.25",
         "429.mcf"},
        config);
    EXPECT_EQ(rest, (std::vector<std::string>{"--budget=5", "429.mcf"}));
    EXPECT_EQ(config.workers, 3u);
    EXPECT_EQ(config.timeoutMs, 250u);
    EXPECT_EQ(config.retries, 2u);
    EXPECT_EQ(config.shard.index, 1u);
    EXPECT_EQ(config.shard.count, 3u);
    EXPECT_EQ(config.cacheDir, "some/dir");
    EXPECT_EQ(config.verifyHitFraction, 0.25);

    // Both ends of the verify-hits range are valid.
    for (const char *f : {"--verify-hits=0", "--verify-hits=1"}) {
        runner::BatchConfig c;
        parseFlags({"--cache-dir=d", f}, c);
    }
}

TEST(CampaignFlags, RejectsEachBadInput)
{
    const std::vector<std::vector<std::string>> bad = {
        // --verify-hits=all used to parse to 0: verification off.
        {"--cache-dir=d", "--verify-hits=all"},
        {"--cache-dir=d", "--verify-hits=nan"},
        {"--cache-dir=d", "--verify-hits=1.5"},
        {"--cache-dir=d", "--verify-hits=-0.1"},
        {"--cache-dir=d", "--verify-hits=0.5x"},
        {"--cache-dir=d", "--verify-hits="},
        // Used to be silently ignored.
        {"--verify-hits=1"},
        // Trailing characters used to be accepted.
        {"--shard=0/3x"},
        {"--shard=0x/3"},
        {"--shard=0"},
        {"--shard=3/3"},
        {"--shard=0/0"},
        {"--shard=-1/3"},
        {"--jobs=4x"},
        {"--jobs=-1"},
        {"--jobs="},
        {"--jobs=99999999999"},
        {"--timeout=1s"},
        {"--retries= 2"},
        {"--cache-dir="},
    };
    for (const std::vector<std::string> &args : bad) {
        SCOPED_TRACE(args.back());
        runner::BatchConfig config;
        ScopedFatalThrow fatal_throws;
        EXPECT_THROW(parseFlags(args, config), FatalError);
    }
}

// ---------------------------------------------------------------------
// Shared-service audits: logging seam, registry, trace capture.
// ---------------------------------------------------------------------

TEST(FatalThrowSeam, ScopedAndThreadLocal)
{
    // Inside the scope fatal() throws a FatalError carrying message
    // and site; the scope is per-thread, so another thread entering
    // its own scope observes its own fatal, not ours.
    try {
        ScopedFatalThrow fatal_throws;
        fatal("seam check %d", 7);
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("seam check 7"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_batch_runner"),
                  std::string::npos);
    }

    std::string other_thread_error;
    std::thread([&] {
        ScopedFatalThrow fatal_throws;
        try {
            fatal_if(true, "worker fatal");
        } catch (const FatalError &e) {
            other_thread_error = e.what();
        }
    }).join();
    EXPECT_NE(other_thread_error.find("worker fatal"),
              std::string::npos);
}

namespace {

/** Minimal source for registry-race tests: echoes the builtin
 *  synthetic resolution under a private scheme name. */
class StubSource : public workloads::WorkloadSource
{
  public:
    explicit StubSource(std::string scheme_name)
        : name(std::move(scheme_name))
    {}

    std::string scheme() const override { return name; }

    workloads::Workload
    resolve(const std::string &spec) const override
    {
        return workloads::resolveWorkload(
            workloads::syntheticUri(spec));
    }

  private:
    std::string name;
};

} // namespace

TEST(RegistryRace, ConcurrentRegistrationAndResolution)
{
    // Regression for the lazy-init data race (source.cc registry):
    // two threads register distinct schemes while four more hammer
    // resolution through the builtins. Under TSan this is the probe
    // that used to light up; functionally, both registrations must
    // land and every resolution must succeed.
    std::thread reg_a([] {
        workloads::registerSource(
            std::make_unique<StubSource>("race-a"));
    });
    std::thread reg_b([] {
        workloads::registerSource(
            std::make_unique<StubSource>("race-b"));
    });
    std::vector<std::thread> resolvers;
    std::atomic<unsigned> resolved{0};
    for (int t = 0; t < 4; ++t) {
        resolvers.emplace_back([&resolved] {
            for (int i = 0; i < 50; ++i) {
                const workloads::Workload w =
                    workloads::resolveWorkload("462.libquantum");
                if (w.name == "462.libquantum")
                    resolved.fetch_add(1);
            }
        });
    }
    reg_a.join();
    reg_b.join();
    for (std::thread &t : resolvers)
        t.join();
    EXPECT_EQ(resolved.load(), 200u);

    EXPECT_EQ(workloads::resolveWorkload("source://race-a/429.mcf")
                  .name, "429.mcf");
    EXPECT_EQ(workloads::resolveWorkload("source://race-b/473.astar")
                  .name, "473.astar");
}

TEST(RegistryRace, OneWinnerWhenTwoThreadsClaimOneScheme)
{
    std::atomic<unsigned> winners{0}, losers{0};
    std::vector<std::thread> claimants;
    for (int t = 0; t < 2; ++t) {
        claimants.emplace_back([&] {
            ScopedFatalThrow fatal_throws;
            try {
                workloads::registerSource(
                    std::make_unique<StubSource>("race-dup"));
                winners.fetch_add(1);
            } catch (const FatalError &) {
                losers.fetch_add(1);
            }
        });
    }
    for (std::thread &t : claimants)
        t.join();
    EXPECT_EQ(winners.load(), 1u);
    EXPECT_EQ(losers.load(), 1u);
}

TEST(ConcurrentCapture, TwoSystemsCapturingAreByteIdentical)
{
    // Two Systems capturing different workloads to different paths
    // on different threads must write byte-identical files to their
    // serial captures: capture is System-local state except for the
    // final file write, and the paths are distinct.
    const char *names[] = {"464.h264ref", "429.mcf"};
    std::vector<uint8_t> serial_bytes[2];
    for (int i = 0; i < 2; ++i) {
        const std::string path =
            tempPath(std::string("cap_serial_") + names[i] + ".dtrc");
        sim::MetricsOptions options = smallOptions(80'000);
        options.captureTracePath = path;
        sim::snapshotRun(workloads::resolveWorkload(
                             workloads::syntheticUri(names[i])),
                         options);
        serial_bytes[i] = readAll(path);
        std::remove(path.c_str());
        ASSERT_FALSE(serial_bytes[i].empty());
    }

    std::vector<uint8_t> threaded_bytes[2];
    std::vector<std::thread> capturers;
    for (int i = 0; i < 2; ++i) {
        capturers.emplace_back([i, &names, &threaded_bytes] {
            const std::string path = tempPath(
                std::string("cap_threaded_") + names[i] + ".dtrc");
            sim::MetricsOptions options = smallOptions(80'000);
            options.captureTracePath = path;
            sim::snapshotRun(workloads::resolveWorkload(
                                 workloads::syntheticUri(names[i])),
                             options);
            threaded_bytes[i] = readAll(path);
            std::remove(path.c_str());
        });
    }
    for (std::thread &t : capturers)
        t.join();

    EXPECT_EQ(threaded_bytes[0], serial_bytes[0]);
    EXPECT_EQ(threaded_bytes[1], serial_bytes[1]);
}

} // namespace
