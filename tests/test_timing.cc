/**
 * @file
 * Timing-model unit tests: cache geometry and tree-PLRU exactness,
 * write-back behaviour, two-level TLB, Gshare/BTB learning, stride
 * prefetcher, and pipeline timing invariants (dual-issue IPC,
 * dependence chains, load-use latency, the 6-cycle misprediction
 * penalty, cycle-accounting closure).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/prng.hh"
#include "timing/branch_predictor.hh"
#include "timing/cache.hh"
#include "timing/pipeline.hh"
#include "timing/prefetcher.hh"
#include "timing/tlb.hh"

using namespace darco;
using namespace darco::timing;

// ----- caches -----------------------------------------------------------

TEST(Cache, HitAfterFill)
{
    TimingConfig cfg;
    Cache l2(cfg.l2, nullptr, cfg.memLatency);
    Cache l1(cfg.l1d, &l2, cfg.memLatency);

    bool miss = false;
    const uint32_t lat1 = l1.access(0x1000, false, miss);
    EXPECT_TRUE(miss);
    EXPECT_EQ(lat1, cfg.l1d.hitLatency + cfg.l2.hitLatency +
                    cfg.memLatency);

    const uint32_t lat2 = l1.access(0x1000, false, miss);
    EXPECT_FALSE(miss);
    EXPECT_EQ(lat2, cfg.l1d.hitLatency);

    // Same line, different offset: still a hit.
    l1.access(0x103C, false, miss);
    EXPECT_FALSE(miss);
    // Next line: miss, but L2 holds it? No - L2 fills by line too.
    l1.access(0x1040, false, miss);
    EXPECT_TRUE(miss);
}

TEST(Cache, L2HitPathLatency)
{
    TimingConfig cfg;
    Cache l2(cfg.l2, nullptr, cfg.memLatency);
    Cache l1(cfg.l1d, &l2, cfg.memLatency);

    bool miss = false;
    l1.access(0x2000, false, miss);           // fills both levels
    // Evict from L1 by filling its set (L1D: 32KB/64B/4w -> 128 sets;
    // set stride = 128 * 64 = 8KB).
    for (uint32_t w = 1; w <= 4; ++w)
        l1.access(0x2000 + w * 8192, false, miss);
    // 0x2000 evicted from L1 but still in L2 (512KB/128B/8w).
    const uint32_t lat = l1.access(0x2000, false, miss);
    EXPECT_TRUE(miss);
    EXPECT_EQ(lat, cfg.l1d.hitLatency + cfg.l2.hitLatency);
}

TEST(Cache, TreePlruExactSequence)
{
    // 4-way set: fill ways A,B,C,D then touch A: PLRU victim must be
    // B (the least recently used after the touch pattern).
    CacheGeometry geom{4 * 64 * 4, 64, 4, 1};  // 4 sets exactly
    Cache cache(geom, nullptr, 10);

    bool miss;
    const uint32_t set_stride = 4 * 64;  // 4 sets * 64B
    auto addr = [&](uint32_t tag) { return tag * set_stride; };

    cache.access(addr(1), false, miss);  // A
    cache.access(addr(2), false, miss);  // B
    cache.access(addr(3), false, miss);  // C
    cache.access(addr(4), false, miss);  // D
    cache.access(addr(1), false, miss);  // touch A
    EXPECT_FALSE(miss);

    // Insert E: evicts tree-PLRU victim. A was just touched, so A must
    // survive.
    cache.access(addr(5), false, miss);
    EXPECT_TRUE(miss);
    cache.access(addr(1), false, miss);
    EXPECT_FALSE(miss) << "PLRU evicted the most recently used way";
}

TEST(Cache, WritebackOnDirtyEviction)
{
    CacheGeometry small{2 * 64 * 2, 64, 2, 1};  // 2 sets, 2 ways
    Cache l2(CacheGeometry{64 * 1024, 128, 8, 16}, nullptr, 100);
    Cache l1(small, &l2, 100);

    bool miss;
    const uint32_t stride = 2 * 64;
    l1.access(0 * stride, true, miss);   // dirty A
    l1.access(1 * stride, false, miss);  // B
    l1.access(2 * stride, false, miss);  // evicts A -> writeback
    EXPECT_EQ(l1.stats().writebacks, 1u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    TimingConfig cfg;
    Cache l1(cfg.l1d, nullptr, 100);
    EXPECT_FALSE(l1.probe(0x5000));
    bool miss;
    l1.access(0x5000, false, miss);
    EXPECT_TRUE(l1.probe(0x5000));
    EXPECT_EQ(l1.stats().accesses, 1u);  // probes don't count
}

TEST(Cache, PrefetchFillsWithoutAccessCount)
{
    TimingConfig cfg;
    Cache l1(cfg.l1d, nullptr, 100);
    l1.prefetch(0x9000);
    EXPECT_TRUE(l1.probe(0x9000));
    EXPECT_EQ(l1.stats().accesses, 0u);
    EXPECT_EQ(l1.stats().prefetchFills, 1u);
}

namespace {

/**
 * Naive exact-LRU reference: per-way recency stamps, a linear scan
 * per lookup, the first invalid way or the smallest stamp as victim.
 * It sends the same misses and writebacks to its own next level as
 * Cache does, in the same order.
 */
class StampLruCache
{
  public:
    StampLruCache(const CacheGeometry &geometry, Cache *next,
                  uint32_t mem_latency)
        : geom(geometry), nextLevel(next), memLatency(mem_latency),
          numSets(geometry.sizeBytes /
                  (geometry.lineBytes * geometry.ways)),
          ways(static_cast<size_t>(numSets) * geometry.ways)
    {}

    uint32_t
    access(uint32_t addr, bool write, bool &miss)
    {
        ++stat.accesses;
        const uint32_t line = addr / geom.lineBytes;
        if (Way *w = find(line)) {
            miss = false;
            w->stamp = ++clock;
            w->dirty |= write;
            return geom.hitLatency;
        }
        ++stat.misses;
        miss = true;
        uint32_t below = memLatency;
        if (nextLevel) {
            bool next_miss = false;
            below = nextLevel->access(addr, false, next_miss);
        }
        fill(line, write);
        return geom.hitLatency + below;
    }

    void
    prefetch(uint32_t addr)
    {
        const uint32_t line = addr / geom.lineBytes;
        if (find(line))
            return;
        if (nextLevel)
            nextLevel->prefetch(addr);
        fill(line, false);
        ++stat.prefetchFills;
    }

    bool
    probe(uint32_t addr)
    {
        return find(addr / geom.lineBytes) != nullptr;
    }

    void
    reset()
    {
        ways.assign(ways.size(), Way());
        stat = CacheStats();
    }

    const CacheStats &stats() const { return stat; }

  private:
    struct Way
    {
        uint32_t line = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t stamp = 0;
    };

    Way *
    setBase(uint32_t line)
    {
        return &ways[static_cast<size_t>(line % numSets) * geom.ways];
    }

    Way *
    find(uint32_t line)
    {
        Way *set = setBase(line);
        for (uint32_t w = 0; w < geom.ways; ++w) {
            if (set[w].valid && set[w].line == line)
                return &set[w];
        }
        return nullptr;
    }

    void
    fill(uint32_t line, bool dirty)
    {
        Way *set = setBase(line);
        Way *victim = nullptr;
        for (uint32_t w = 0; w < geom.ways && !victim; ++w) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (!victim) {
            victim = &set[0];
            for (uint32_t w = 1; w < geom.ways; ++w) {
                if (set[w].stamp < victim->stamp)
                    victim = &set[w];
            }
            if (victim->dirty) {
                ++stat.writebacks;
                if (nextLevel) {
                    bool next_miss = false;
                    (void)nextLevel->access(
                        victim->line * geom.lineBytes, true, next_miss);
                }
            }
        }
        *victim = {line, true, dirty, ++clock};
    }

    CacheGeometry geom;
    Cache *nextLevel;
    uint32_t memLatency;
    uint32_t numSets;
    std::vector<Way> ways;
    uint64_t clock = 0;
    CacheStats stat;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.prefetchFills, b.prefetchFills) << what;
}

/**
 * Drive Cache and StampLruCache with one seeded stream of reads,
 * writes and prefetches over @p span_lines lines (with repeats of the
 * previous address, so the same-line fast path is hit too) and
 * require identical results access by access. Each side owns an
 * identical PLRU next level when @p with_next. Both are reset midway.
 */
void
expectMatchesStampLru(const CacheGeometry &geom, bool with_next,
                      uint32_t span_lines, uint64_t seed)
{
    ASSERT_TRUE(geom.trueLru);
    const CacheGeometry l2_geom{32 * 1024, 128, 8, 10};
    Cache next_fast(l2_geom, nullptr, 100);
    Cache next_ref(l2_geom, nullptr, 100);
    Cache fast(geom, with_next ? &next_fast : nullptr, 50);
    StampLruCache ref(geom, with_next ? &next_ref : nullptr, 50);

    Prng rng(seed);
    constexpr int kAccesses = 40000;
    uint32_t addr = 0;
    for (int i = 0; i < kAccesses; ++i) {
        const std::string what = "seed " + std::to_string(seed) +
                                 " access " + std::to_string(i);
        if (i == kAccesses / 2) {
            fast.reset();
            ref.reset();
        }
        if (!rng.chance(0.3)) {
            addr = static_cast<uint32_t>(rng.below(span_lines)) *
                       geom.lineBytes +
                   static_cast<uint32_t>(rng.below(geom.lineBytes));
        }
        if (rng.chance(0.05)) {
            fast.prefetch(addr);
            ref.prefetch(addr);
        } else {
            const bool write = rng.chance(0.3);
            bool miss_fast = false, miss_ref = false;
            const uint32_t lat_fast = fast.access(addr, write, miss_fast);
            const uint32_t lat_ref = ref.access(addr, write, miss_ref);
            ASSERT_EQ(miss_fast, miss_ref) << what;
            ASSERT_EQ(lat_fast, lat_ref) << what;
        }
        const uint32_t other =
            static_cast<uint32_t>(rng.below(span_lines)) * geom.lineBytes;
        ASSERT_EQ(fast.probe(addr), ref.probe(addr)) << what;
        ASSERT_EQ(fast.probe(other), ref.probe(other)) << what;
    }
    expectSameStats(fast.stats(), ref.stats(), "cache");
    expectSameStats(next_fast.stats(), next_ref.stats(), "next level");
    EXPECT_GT(fast.stats().writebacks, 0u);
}

} // namespace

TEST(Cache, TrueLruMatchesStampReferenceFullyAssociative8)
{
    const CacheGeometry geom{8 * 64, 64, 8, 1, true};
    for (uint64_t seed = 1; seed <= 3; ++seed)
        expectMatchesStampLru(geom, false, 14, seed);
}

TEST(Cache, TrueLruMatchesStampReferenceFullyAssociative512)
{
    const CacheGeometry geom{512 * 64, 64, 512, 1, true};
    for (uint64_t seed = 1; seed <= 3; ++seed)
        expectMatchesStampLru(geom, false, 800, seed);
}

TEST(Cache, TrueLruMatchesStampReferenceSetAssociativeWithNextLevel)
{
    const CacheGeometry geom{16 * 4 * 64, 64, 4, 2, true};  // 16 sets
    for (uint64_t seed = 1; seed <= 3; ++seed)
        expectMatchesStampLru(geom, true, 120, seed);
}

// ----- TLB -------------------------------------------------------------

TEST(Tlb, TwoLevelLatencies)
{
    TimingConfig cfg;
    Tlb tlb(cfg);

    // Cold: L1 and L2 miss -> walk.
    EXPECT_EQ(tlb.access(0x1000), cfg.tlbL2Latency + cfg.tlbWalkLatency);
    // Warm: L1 hit.
    EXPECT_EQ(tlb.access(0x1234), 0u);
    EXPECT_EQ(tlb.stats().l2Misses, 1u);

    // Blow out L1 (64 entries) but stay within L2 (256): pages 1..80.
    for (uint32_t p = 1; p <= 80; ++p)
        tlb.access(p << 12);
    // Page 1 should now be an L1 miss but L2 hit.
    const uint32_t lat = tlb.access(0x1000 + (0u << 12));
    EXPECT_TRUE(lat == 0 || lat == cfg.tlbL2Latency);
}

TEST(Tlb, SamePageSingleEntry)
{
    TimingConfig cfg;
    Tlb tlb(cfg);
    tlb.access(0x7000);
    EXPECT_EQ(tlb.access(0x7FFF), 0u);  // same 4K page
    EXPECT_EQ(tlb.stats().l1Misses, 1u);
}

// ----- branch predictor --------------------------------------------------

TEST(BranchPredictor, LearnsAlwaysTakenLoop)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    unsigned wrong = 0;
    for (int i = 0; i < 100; ++i) {
        if (!bp.predict(0x4000, true, 0x3000, true, false))
            ++wrong;
    }
    EXPECT_LT(wrong, 20u);  // warms up within the history depth
}

TEST(BranchPredictor, LearnsAlternatingWithHistory)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    // Alternating T/N/T/N is perfectly predictable with global
    // history once warmed.
    unsigned wrong_late = 0;
    for (int i = 0; i < 400; ++i) {
        const bool taken = (i & 1) != 0;
        const bool ok = bp.predict(0x4000, taken, 0x3000, true, false);
        if (i >= 200 && !ok)
            ++wrong_late;
    }
    EXPECT_LT(wrong_late, 10u);
}

TEST(BranchPredictor, IndirectTargetChangesMispredict)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    // Stable target: learns.
    for (int i = 0; i < 10; ++i)
        bp.predict(0x5000, true, 0x8000, false, true);
    EXPECT_TRUE(bp.predict(0x5000, true, 0x8000, false, true));
    // Changing target: always wrong on the change.
    EXPECT_FALSE(bp.predict(0x5000, true, 0x9000, false, true));
    EXPECT_FALSE(bp.predict(0x5000, true, 0x8000, false, true));
    EXPECT_GT(bp.stats().indirectMispredicts, 0u);
}

TEST(BranchPredictor, BtbColdMissMispredictsTakenBranch)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    // First sight of an unconditional jump: no BTB target -> wrong.
    EXPECT_FALSE(bp.predict(0x6000, true, 0xA000, false, false));
    EXPECT_TRUE(bp.predict(0x6000, true, 0xA000, false, false));
}

// ----- prefetcher ---------------------------------------------------------

TEST(Prefetcher, DetectsStrideAfterConfirmations)
{
    TimingConfig cfg;
    Cache l2(cfg.l2, nullptr, cfg.memLatency);
    StridePrefetcher pf(cfg.prefetcherEntries, l2);

    // Stride of one line: 64B; distance-4 prefetch lands at +0x100.
    pf.train(0x100, 0x10000);
    pf.train(0x100, 0x10040);
    pf.train(0x100, 0x10080);  // 2nd confirmation -> prefetch 0x10180
    EXPECT_GE(pf.stats().prefetches, 1u);
    EXPECT_TRUE(l2.probe(0x10180));
}

TEST(Prefetcher, IgnoresIrregularPattern)
{
    TimingConfig cfg;
    Cache l2(cfg.l2, nullptr, cfg.memLatency);
    StridePrefetcher pf(cfg.prefetcherEntries, l2);
    Prng rng(9);
    for (int i = 0; i < 50; ++i)
        pf.train(0x200, static_cast<uint32_t>(rng.below(1u << 20)));
    EXPECT_LT(pf.stats().prefetches, 5u);
}

// ----- pipeline ------------------------------------------------------------

namespace {

Record
aluRec(uint32_t pc, uint8_t rd, uint8_t rs1, uint8_t rs2,
       Module mod = Module::App)
{
    Record rec;
    rec.pc = pc;
    rec.op = host::HOp::ADD;
    rec.rd = rd;
    rec.rs1 = rs1;
    rec.rs2 = rs2;
    rec.module = mod;
    rec.fromRegion = mod == Module::App;
    return rec;
}

Record
loadRec(uint32_t pc, uint8_t rd, uint32_t addr)
{
    Record rec;
    rec.pc = pc;
    rec.op = host::HOp::LD;
    rec.rd = rd;
    rec.rs1 = 40;
    rec.isLoad = true;
    rec.memAddr = addr;
    rec.size = 4;
    rec.fromRegion = true;
    return rec;
}

Record
branchRec(uint32_t pc, bool taken, uint32_t target)
{
    Record rec;
    rec.pc = pc;
    rec.op = host::HOp::BNE;
    rec.rs1 = 33;
    rec.rs2 = 0;
    rec.isBranch = true;
    rec.isCondBranch = true;
    rec.taken = taken;
    rec.branchTarget = taken ? target : 0;
    rec.fromRegion = true;
    return rec;
}

} // namespace

TEST(Pipeline, DualIssueIndependentStreamReachesIpc2)
{
    TimingConfig cfg;
    Pipeline pipe(cfg, Pipeline::Filter::All);
    // 4000 independent ALU ops: rd rotates so no dependences.
    for (uint32_t i = 0; i < 4000; ++i)
        pipe.consume(aluRec(0x1000 + 4 * (i % 16), 33 + (i % 8), 32, 32));
    pipe.finish();
    EXPECT_GT(pipe.stats().ipc(), 1.8);
}

TEST(Pipeline, DependenceChainLimitsIpcTo1)
{
    TimingConfig cfg;
    Pipeline pipe(cfg, Pipeline::Filter::All);
    // Serial chain: each reads the previous result.
    for (uint32_t i = 0; i < 4000; ++i)
        pipe.consume(aluRec(0x1000 + 4 * (i % 16), 33, 33, 33));
    pipe.finish();
    EXPECT_LT(pipe.stats().ipc(), 1.05);
    EXPECT_GT(pipe.stats().ipc(), 0.90);
}

TEST(Pipeline, MispredictPenaltyMatchesConfig)
{
    TimingConfig cfg;

    // Baseline: same stream with an always-correctly-predicted branch
    // vs one where every branch target alternates (mispredicted).
    auto run = [&cfg](bool random_dir) {
        Pipeline pipe(cfg, Pipeline::Filter::All);
        Prng rng(17);
        const unsigned n = 2000;
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned k = 0; k < 4; ++k)
                pipe.consume(aluRec(0x1000 + 16 * k,
                                    static_cast<uint8_t>(33 + k), 32,
                                    32));
            // Conditional branch: stable direction+target vs random
            // direction (irreducibly mispredicted ~50% of the time).
            const bool taken = random_dir ? rng.chance(0.5) : true;
            pipe.consume(branchRec(0x1100, taken, 0x1000));
        }
        pipe.finish();
        return pipe.stats();
    };

    const PipeStats stable = run(false);
    const PipeStats alt = run(true);
    ASSERT_GT(alt.bp.mispredicts, 500u);  // random directions mispredict

    const double extra_cycles =
        static_cast<double>(alt.cycles) - static_cast<double>(stable.cycles);
    const double extra_mispredicts =
        static_cast<double>(alt.bp.mispredicts) -
        static_cast<double>(stable.bp.mispredicts);
    const double penalty = extra_cycles / extra_mispredicts;
    EXPECT_NEAR(penalty, static_cast<double>(cfg.mispredictPenalty), 1.5);
}

TEST(Pipeline, LoadMissCreatesDcacheBubbles)
{
    TimingConfig cfg;
    cfg.prefetcherEnabled = false;
    Pipeline pipe(cfg, Pipeline::Filter::All);
    // Loads striding far apart (always missing), each immediately
    // consumed.
    for (uint32_t i = 0; i < 500; ++i) {
        pipe.consume(loadRec(0x1000, 34, 0x100000 + i * 4096));
        pipe.consume(aluRec(0x1004, 35, 34, 34));
    }
    pipe.finish();
    const double dbubbles =
        pipe.stats().bucketTotal(Bucket::DcacheBubble);
    EXPECT_GT(dbubbles, 0.3 * static_cast<double>(pipe.stats().cycles));
}

TEST(Pipeline, AccountingClosesExactly)
{
    TimingConfig cfg;
    Pipeline pipe(cfg, Pipeline::Filter::All);
    Prng rng(5);
    for (uint32_t i = 0; i < 5000; ++i) {
        if (rng.chance(0.2)) {
            pipe.consume(loadRec(0x1000 + 4 * (i % 64), 34,
                                 static_cast<uint32_t>(rng.below(1u << 22))));
        } else if (rng.chance(0.15)) {
            pipe.consume(branchRec(0x2000 + 4 * (i % 8), rng.chance(0.5),
                                   0x1000));
        } else {
            pipe.consume(aluRec(0x1000 + 4 * (i % 64),
                                static_cast<uint8_t>(33 + i % 6), 32, 32));
        }
    }
    pipe.finish();

    double total = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        total += pipe.stats().bucketTotal(static_cast<Bucket>(b));
    EXPECT_NEAR(total, static_cast<double>(pipe.stats().cycles), 0.5);

    // Source-split accounting closes too.
    const double src_total = pipe.stats().sourceCycles(false) +
                             pipe.stats().sourceCycles(true);
    EXPECT_NEAR(src_total, static_cast<double>(pipe.stats().cycles), 0.5);
}

// ----- diffStats ---------------------------------------------------------

namespace {

/** f(path, leaf) for every numeric leaf of @p value, mutable. */
template <typename T, typename F>
void
forEachLeaf(T &value, const std::string &path, F &&f)
{
    if constexpr (std::is_arithmetic_v<T>) {
        f(path, value);
    } else if constexpr (requires { std::tuple_size<T>::value; }) {
        for (size_t i = 0; i < value.size(); ++i)
            forEachLeaf(value[i], path + "[" + std::to_string(i) + "]", f);
    } else {
        forEachField(value, [&](std::string_view name, auto &member) {
            const std::string field(name);
            forEachLeaf(member, path.empty() ? field : path + "." + field,
                        f);
        });
    }
}

} // namespace

TEST(PipeStatsDiff, NamesEveryCounter)
{
    // Generated from the PipeStats field lists: bumping any one leaf
    // (every cell of every array) must make diffStats report exactly
    // that leaf, except burstCycles, which is not compared.
    const PipeStats base;
    EXPECT_EQ(diffStats(base, base), "");
    PipeStats probe;
    std::vector<std::string> paths;
    forEachLeaf(probe, "", [&](const std::string &path, auto &) {
        paths.push_back(path);
    });
    for (size_t k = 0; k < paths.size(); ++k) {
        SCOPED_TRACE(paths[k]);
        PipeStats bumped;
        std::ostringstream expected;
        size_t i = 0;
        forEachLeaf(bumped, "", [&](const std::string &path, auto &leaf) {
            if (i++ != k)
                return;
            expected << path << ": " << leaf << " != ";
            leaf += 1;
            expected << leaf << "\n";
        });
        EXPECT_EQ(diffStats(base, bumped),
                  paths[k] == "burstCycles" ? "" : expected.str());
    }
    // The line names other gates and tests match on.
    for (const char *name :
         {"cycles", "insts[6]", "unitDenom", "bucketUnits[4][6]",
          "bucketSrc[0][1]", "l1d.misses", "l2.prefetchFills",
          "tlb.l2Misses", "bp.branches", "prefetch.prefetches",
          "burstCycles"}) {
        EXPECT_NE(std::find(paths.begin(), paths.end(), name), paths.end())
            << name;
    }
}

TEST(Pipeline, FilterDropsOtherSide)
{
    TimingConfig cfg;
    Pipeline tol_pipe(cfg, Pipeline::Filter::TolOnly);
    Pipeline app_pipe(cfg, Pipeline::Filter::AppOnly);
    for (uint32_t i = 0; i < 100; ++i) {
        Record app = aluRec(0x1000, 33, 32, 32, Module::App);
        Record tol = aluRec(0x2000, 2, 1, 1, Module::IM);
        tol.fromRegion = false;
        tol_pipe.consume(app);
        tol_pipe.consume(tol);
        app_pipe.consume(app);
        app_pipe.consume(tol);
    }
    tol_pipe.finish();
    app_pipe.finish();
    EXPECT_EQ(tol_pipe.stats().records, 100u);
    EXPECT_EQ(app_pipe.stats().records, 100u);
}

TEST(Pipeline, ComplexOpsUseLongerLatency)
{
    TimingConfig cfg;
    // Serial FDIV chain: latency 5 per op.
    Pipeline pipe(cfg, Pipeline::Filter::All);
    for (uint32_t i = 0; i < 1000; ++i) {
        Record rec;
        rec.pc = 0x1000 + 4 * (i % 8);
        rec.op = host::HOp::FDIV;
        rec.rd = timing::fpRegId(16);
        rec.rs1 = timing::fpRegId(16);
        rec.rs2 = timing::fpRegId(17);
        rec.fromRegion = true;
        pipe.consume(rec);
    }
    pipe.finish();
    // ~5 cycles per instruction.
    EXPECT_GT(pipe.stats().cycles, 4500u);
}
