/**
 * @file
 * Workload-suite tests: every synthetic benchmark must build, run
 * under strict co-simulation without architectural divergence, and
 * exhibit the characteristics its paper counterpart is parameterized
 * for (indirect-branch density ordering, dynamic/static ratio
 * ordering, mode distribution shape).
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "workloads/params.hh"

using darco::sim::SimConfig;
using darco::sim::System;
using darco::sim::SystemResult;
namespace wl = darco::workloads;

namespace {

SimConfig
quickConfig(uint64_t budget)
{
    SimConfig cfg;
    cfg.cosim = true;
    cfg.cosimStrict = true;
    cfg.guestBudget = budget;
    return cfg;
}

struct RunOutcome
{
    SystemResult result;
    uint64_t indirect;
    uint64_t staticInsts;
    uint64_t dynIm, dynBbm, dynSbm;
    uint64_t sbs;
};

RunOutcome
runSynthetic(const wl::BenchParams &params, uint64_t budget)
{
    System sys(quickConfig(budget));
    sys.load(wl::buildBenchmark(params));
    RunOutcome out;
    out.result = sys.run();
    const auto &ts = sys.tolStats();
    out.indirect = ts.guestIndirectBranches;
    out.staticInsts = ts.staticMode.size();
    out.dynIm = ts.dynIm;
    out.dynBbm = ts.dynBbm;
    out.dynSbm = ts.dynSbm;
    out.sbs = ts.sbsCreated;
    return out;
}

} // namespace

class WorkloadSuite : public ::testing::TestWithParam<size_t>
{};

TEST_P(WorkloadSuite, RunsUnderStrictCosim)
{
    const wl::BenchParams &params = wl::allBenchmarks()[GetParam()];
    const RunOutcome out = runSynthetic(params, 60000);
    // Strict cosim would have panicked on mismatch; check progress.
    EXPECT_GE(out.result.guestRetired, 50000u) << params.name;
    EXPECT_GT(out.staticInsts, 50u) << params.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSuite,
    ::testing::Range<size_t>(0, wl::allBenchmarks().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = wl::allBenchmarks()[info.param].name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(WorkloadCharacteristics, TableHas48Benchmarks)
{
    EXPECT_EQ(wl::allBenchmarks().size(), 48u);
    EXPECT_EQ(wl::suiteBenchmarks("SPEC INT").size(), 12u);
    EXPECT_EQ(wl::suiteBenchmarks("SPEC FP").size(), 16u);
    EXPECT_EQ(wl::suiteBenchmarks("Physics").size(), 8u);
    EXPECT_EQ(wl::suiteBenchmarks("Media").size(), 12u);
}

TEST(WorkloadCharacteristics, PerlbenchIndirectHeavyVsBzip2)
{
    // Paper §III-B: 400.perlbench has ~4 orders of magnitude more
    // indirect branches than 401.bzip2.
    const auto perl = runSynthetic(*wl::findBenchmark("400.perlbench"),
                                   300000);
    const auto bzip = runSynthetic(*wl::findBenchmark("401.bzip2"),
                                   300000);
    EXPECT_GT(perl.indirect, 20 * std::max<uint64_t>(1, bzip.indirect));
}

TEST(WorkloadCharacteristics, LibquantumHighRepetition)
{
    const auto libq = runSynthetic(
        *wl::findBenchmark("462.libquantum"), 400000);
    const auto cjpeg = runSynthetic(*wl::findBenchmark("000.cjpeg"),
                                    400000);
    const double libq_ratio =
        static_cast<double>(libq.result.guestRetired) /
        static_cast<double>(libq.staticInsts);
    const double cjpeg_ratio =
        static_cast<double>(cjpeg.result.guestRetired) /
        static_cast<double>(cjpeg.staticInsts);
    // libquantum's dynamic/static ratio dwarfs cjpeg's (paper Fig 6).
    EXPECT_GT(libq_ratio, 20 * cjpeg_ratio);
}

TEST(WorkloadCharacteristics, SimilarStaticFootprints)
{
    // Paper §III-B: cjpeg, djpeg and milc have similar static
    // footprints (~15K), but milc has far more dynamic instructions.
    const auto cjpeg = runSynthetic(*wl::findBenchmark("000.cjpeg"),
                                    500000);
    const auto milc = runSynthetic(*wl::findBenchmark("433.milc"),
                                   500000);
    EXPECT_LT(static_cast<double>(cjpeg.staticInsts) * 0.4,
              static_cast<double>(milc.staticInsts));
    EXPECT_LT(static_cast<double>(milc.staticInsts) * 0.4,
              static_cast<double>(cjpeg.staticInsts));
}

TEST(WorkloadCharacteristics, Jpg2000EncMoreSuperblocksThanDec)
{
    // Paper §III-B: 007.jpg2000enc creates ~4.7x the superblocks of
    // 006.jpg2000dec (450 vs 96).
    darco::sim::SimConfig cfg = quickConfig(1'500'000);
    cfg.tol.bbToSbThreshold = 2000;  // scaled threshold for the budget
    System dec(cfg);
    dec.load(wl::buildBenchmark(*wl::findBenchmark("006.jpg2000dec")));
    dec.run();
    System enc(cfg);
    enc.load(wl::buildBenchmark(*wl::findBenchmark("007.jpg2000enc")));
    enc.run();
    EXPECT_GT(enc.tolStats().sbsCreated,
              2 * dec.tolStats().sbsCreated);
}

TEST(WorkloadCharacteristics, SpecrandRunsToCompletion)
{
    const auto rnd = runSynthetic(*wl::findBenchmark("998.specrand"),
                                  10'000'000);
    EXPECT_TRUE(rnd.result.halted);
}
