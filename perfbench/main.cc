/**
 * @file
 * Campaign benchmark program. One invocation measures one workload
 * for a fixed time and prints a JSON result as its last stdout line:
 *
 *   --trace 0  end-to-end metrics from untraced runner::BatchRunner
 *              passes (the path campaign users take);
 *   --trace 1  per-layer metrics from traced passes (traced.hh),
 *              alternated with untraced passes so the tracing
 *              overhead is measured in the same run.
 *
 * Every pass is checked: jobs must succeed, repeat the first pass
 * (or the cache fill) bit for bit, match the committed pins at the
 * default seed, and the traced wiring must reproduce the runner's
 * outputs exactly. See README.md for the workloads and metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hh"
#include "profile/analytic.hh"
#include "runner/result_cache.hh"
#include "runner/snapshot_codec.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "timing/pipeline.hh"
#include "tol/stats.hh"
#include "traced.hh"
#include "workloads/source.hh"

using namespace darco;
using namespace perfbench;

namespace {

/** Passes measured even when --seconds is shorter than they take. */
constexpr size_t kMinPasses = 3;
constexpr size_t kMinTracedPasses = 2;
/** Set-up repetitions per run; setup_s is their median. */
constexpr size_t kSetupReps = 21;
/** Upper bound on campaign workers (never more than nproc). */
constexpr unsigned kMaxWorkers = 4;
/** Job failures printed in full; the rest are only counted. */
constexpr size_t kMaxPrintedErrors = 10;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string pins;
    std::string scratch = ".";
    bool printPins = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-pins") {
            a.printPins = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::stoull(v);
        else if (arg == "--seconds")
            a.seconds = std::stod(v);
        else if (arg == "--trace")
            a.trace = std::stoi(v) != 0;
        else if (arg == "--pins")
            a.pins = v;
        else if (arg == "--scratch")
            a.scratch = v;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * "median X, pNN Y, n=N": the tail is the highest of the listed
 * percentiles (nearest rank) with at least ten samples beyond it.
 */
std::string
describe(std::vector<double> v)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "median %.6g", median(v));
    std::string out = buf;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (std::floor(n * (1.0 - p / 100.0)) < 10)
            continue;
        const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
        std::snprintf(buf, sizeof(buf), ", p%g %.6g", p, v[rank - 1]);
        out += buf;
        break;
    }
    std::snprintf(buf, sizeof(buf), ", n=%zu", v.size());
    return out + buf;
}

/** Bit-identity of two run snapshots, one line per divergence. */
std::string
diffSnapshots(const sim::RunSnapshot &a, const sim::RunSnapshot &b)
{
    std::string d;
    if (a.result.guestRetired != b.result.guestRetired)
        d += "guest_retired differs\n";
    if (a.result.halted != b.result.halted)
        d += "halted differs\n";
    if (a.result.cycles != b.result.cycles)
        d += "sim_cycles differs\n";
    if (a.timingCore != b.timingCore)
        d += "timing_core differs\n";
    d += timing::diffStats(a.stats, b.stats);
    auto pipe = [&](const char *what,
                    const std::optional<timing::PipeStats> &x,
                    const std::optional<timing::PipeStats> &y) {
        if (x.has_value() != y.has_value())
            d += std::string(what) + " presence differs\n";
        else if (x)
            d += timing::diffStats(*x, *y);
    };
    pipe("tol_only", a.tolOnly, b.tolOnly);
    pipe("app_only", a.appOnly, b.appOnly);
    pipe("tol_module", a.tolModule, b.tolModule);
    d += tol::diffTolStats(a.tolStats, b.tolStats);
    if (a.profile.has_value() != b.profile.has_value())
        d += "profile presence differs\n";
    else if (a.profile)
        d += profile::diffProfiles(*a.profile, *b.profile);
    return d;
}

/** Digest of every serialized snapshot field (PipeStats, TolStats,
 *  profile), through the result cache's canonical codec. */
uint64_t
snapshotDigest(const sim::RunSnapshot &snap)
{
    std::string body;
    runner::codec::appendSnapshotFields(body, snap);
    return runner::codec::hashString(body);
}

std::string
jobName(const runner::BatchJob &job)
{
    return job.workload.substr(job.workload.rfind('/') + 1);
}

/** The determinism fields pinned per job at the default seed. */
struct Pin
{
    uint64_t guestRetired = 0;
    uint64_t simCycles = 0;
    uint64_t hostRecords = 0;
    uint64_t digest = 0;

    static Pin
    of(const sim::RunSnapshot &snap)
    {
        return {snap.result.guestRetired, snap.result.cycles,
                snap.stats.records, snapshotDigest(snap)};
    }

    bool
    operator==(const Pin &o) const
    {
        return guestRetired == o.guestRetired &&
               simCycles == o.simCycles &&
               hostRecords == o.hostRecords && digest == o.digest;
    }
};

/** pins.txt lines: "<pin set> <job> <guest> <cycles> <records> <hex>". */
std::map<std::string, Pin>
loadPins(const std::string &path, const std::string &pin_set)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file '" + path + "'");
    std::map<std::string, Pin> pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string set, job;
        Pin p;
        fields >> set >> job >> p.guestRetired >> p.simCycles >>
            p.hostRecords >> std::hex >> p.digest;
        if (!fields)
            throw std::runtime_error("malformed pins line: " + line);
        if (set == pin_set)
            pins[job] = p;
    }
    return pins;
}

/** Counts every job outcome and checks it against its reference. */
class Checker
{
  public:
    Checker(const Campaign &campaign,
            std::optional<std::map<std::string, Pin>> pins)
        : c(campaign), pinned(std::move(pins)), ref(campaign.jobs.size())
    {}

    /**
     * One job outcome. The first successful outcome of a job becomes
     * its reference (after the pin and analytic checks); every later
     * one must be bit-identical to it.
     */
    void
    check(size_t i, const char *pass, bool ok, const std::string &error,
          const sim::RunSnapshot &snap)
    {
        ++attempted;
        if (!ok) {
            fail(i, pass, "job failed: " + error);
            return;
        }
        if (ref[i]) {
            const std::string d = diffSnapshots(snap, *ref[i]);
            if (!d.empty())
                fail(i, pass, "output differs from reference:\n" + d);
            return;
        }
        if (pinned) {
            const auto it = pinned->find(jobName(c.jobs[i]));
            if (it == pinned->end() || !(it->second == Pin::of(snap))) {
                fail(i, pass, "determinism pins differ");
                return;
            }
        }
        if (c.analyticLines && snap.profile) {
            const profile::ReuseHistogram &h = snap.profile->dataReuse;
            if (h.totalAccesses() != snap.stats.l1d.accesses ||
                profile::analytic::expectedLruMisses(
                    h, c.analyticLines) != snap.stats.l1d.misses) {
                fail(i, pass, "analytic LRU misses != simulated L1-D");
                return;
            }
        }
        ref[i] = snap;
    }

    void
    fail(size_t i, const char *pass, const std::string &why)
    {
        ++failed;
        if (failed <= kMaxPrintedErrors) {
            std::fprintf(stderr, "FAIL [%s] %s: %s\n", pass,
                         c.jobs[i].workload.c_str(), why.c_str());
        }
    }

    size_t attempted = 0;
    size_t failed = 0;

  private:
    const Campaign &c;
    std::optional<std::map<std::string, Pin>> pinned;
    std::vector<std::optional<sim::RunSnapshot>> ref;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The deterministic per-layer counts of one pass's outputs. */
std::map<std::string, double>
layerCounts(const std::vector<const sim::RunSnapshot *> &snaps,
            size_t cache_hits)
{
    double dyn[3] = {}, bbs = 0, sbs = 0, flushes = 0, records = 0,
           cycles = 0, insts = 0, tol_insts = 0, burst = 0;
    double l1d[2] = {}, l2[2] = {}, bp[2] = {}, accesses = 0;
    for (const sim::RunSnapshot *s : snaps) {
        const tol::TolStats &t = s->tolStats;
        const timing::PipeStats &p = s->stats;
        dyn[0] += static_cast<double>(t.dynIm);
        dyn[1] += static_cast<double>(t.dynBbm);
        dyn[2] += static_cast<double>(t.dynSbm);
        bbs += static_cast<double>(t.bbsTranslated);
        sbs += static_cast<double>(t.sbsCreated);
        flushes += static_cast<double>(t.codeCacheFlushes);
        records += static_cast<double>(p.records);
        cycles += static_cast<double>(p.cycles);
        insts += static_cast<double>(p.tolInsts() + p.appInsts());
        tol_insts += static_cast<double>(p.tolInsts());
        burst += static_cast<double>(p.burstCycles);
        l1d[0] += static_cast<double>(p.l1d.misses);
        l1d[1] += static_cast<double>(p.l1d.accesses);
        l2[0] += static_cast<double>(p.l2.misses);
        l2[1] += static_cast<double>(p.l2.accesses);
        bp[0] += static_cast<double>(p.bp.mispredicts);
        bp[1] += static_cast<double>(p.bp.branches);
        if (s->profile) {
            accesses +=
                static_cast<double>(s->profile->dataReuse.totalAccesses());
        }
    }
    const double dyn_total = dyn[0] + dyn[1] + dyn[2];
    return {
        {"tol.dyn_im_frac", ratio(dyn[0], dyn_total)},
        {"tol.dyn_bbm_frac", ratio(dyn[1], dyn_total)},
        {"tol.dyn_sbm_frac", ratio(dyn[2], dyn_total)},
        {"tol.bbs_translated", bbs},
        {"tol.sbs_created", sbs},
        {"tol.code_cache_flushes", flushes},
        {"timing.records", records},
        {"timing.sim_cycles", cycles},
        {"timing.ipc", ratio(insts, cycles)},
        {"timing.tol_record_share", ratio(tol_insts, insts)},
        {"timing.l1d_miss_rate", ratio(l1d[0], l1d[1])},
        {"timing.l2_miss_rate", ratio(l2[0], l2[1])},
        {"timing.bp_mispredict_rate", ratio(bp[0], bp[1])},
        {"timing.burst_fraction", ratio(burst, cycles)},
        {"runner.cache_hit_ratio",
         ratio(static_cast<double>(cache_hits),
               static_cast<double>(snaps.size()))},
        {"profile.data_accesses", accesses},
    };
}

std::string
countUnit(const std::string &name)
{
    if (name == "timing.ipc")
        return "inst/cycle";
    for (const char *tag : {"_frac", "_rate", "_ratio", "_share"}) {
        if (name.find(tag) != std::string::npos)
            return "fraction";
    }
    return "count";
}

/** Per-layer host-time metrics, in report order. */
const std::vector<std::string> kLayerTimes = {
    "timing.combined_s", "timing.tol_only_s", "timing.app_only_s",
    "tol.run_self_s", "profile.collector_s", "workloads.resolve_s",
    "runner.cache_lookup_s", "runner.fingerprint_s",
    "sim.collect_metrics_s", "runner.cache_store_s", "sim.setup_s",
};

/** Runs @p fn(i) for every job index on a FIFO pool of @p workers. */
template <class Fn>
void
forEachJob(size_t count, unsigned workers, Fn fn)
{
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (size_t i; (i = next.fetch_add(1)) < count;)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < std::min<size_t>(workers, count); ++w)
        pool.emplace_back(drain);
    for (std::thread &t : pool)
        t.join();
}

struct TracedPass
{
    std::vector<TracedJob> jobs;
    double cpuS = 0;
};

/** One traced pass: simulate (optionally storing), or serve hits. */
TracedPass
runTraced(const Campaign &c, unsigned workers,
          runner::ResultCache *cache, bool hits)
{
    TracedPass pass;
    pass.jobs.resize(c.jobs.size());
    const double c0 = cpuNow();
    forEachJob(c.jobs.size(), workers, [&](size_t i) {
        pass.jobs[i] = hits ? tracedHit(c.jobs[i], *cache)
                            : tracedSimulate(c.jobs[i], cache);
    });
    pass.cpuS = cpuNow() - c0;
    return pass;
}

/**
 * Host seconds to resolve every job's workload and construct and
 * load its simulation, summed over the jobs (resolution only for a
 * warm campaign, whose jobs simulate nothing).
 */
double
setupSeconds(const Campaign &c)
{
    double total = 0;
    for (const runner::BatchJob &job : c.jobs) {
        const double t0 = wallNow();
        const workloads::Workload w = workloads::resolveWorkload(job.workload);
        if (c.warm) {
            total += wallNow() - t0;
            continue;
        }
        sim::MetricsOptions options = job.options;
        sim::applyCaptureRecipe(options, w);
        sim::System sys(sim::configFromOptions(options));
        sys.load(w);
        total += wallNow() - t0;
    }
    return total;
}

struct Metric
{
    std::string name;
    std::string unit;
    std::vector<double> samples;
};

void
printReport(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("  %-26s %-8s %s\n", m.name.c_str(), m.unit.c_str(),
                    describe(m.samples).c_str());
    }
}

std::string
resultJson(bool correct, const Checker &chk,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(chk.attempted);
    out += ", \"failed\": " + std::to_string(chk.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g",
                      median(metrics[i].samples));
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
}

int
run(const Args &a)
{
    registerSeededSource();
    const Campaign c = makeCampaign(a.workload, a.seed);
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const unsigned usable = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
        ? static_cast<unsigned>(CPU_COUNT(&cpus)) : 1u;
    const unsigned workers = std::clamp(usable, 1u, kMaxWorkers);
    std::optional<std::map<std::string, Pin>> pins;
    if (a.seed == 0 && !a.printPins)
        pins = loadPins(a.pins, c.pinSet);
    Checker chk(c, std::move(pins));
    bool counts_repeat = true;
    std::optional<std::map<std::string, double>> first_counts;
    auto check_counts = [&](const std::map<std::string, double> &counts,
                            const char *pass) {
        if (!first_counts)
            first_counts = counts;
        else if (counts != *first_counts) {
            counts_repeat = false;
            std::fprintf(stderr, "FAIL [%s] per-layer counts differ from "
                                 "the first pass\n", pass);
        }
    };

    std::filesystem::create_directories(a.scratch);
    const std::string cache_dir =
        a.scratch + "/cache-" + std::to_string(getpid());
    std::optional<runner::ResultCache> cache;
    if (c.warm) {
        std::filesystem::remove_all(cache_dir);
        cache.emplace(cache_dir);
    }
    runner::BatchConfig config;
    config.workers = workers;
    config.cacheDir = c.warm ? cache_dir : "";
    const runner::BatchRunner runner(config);

    if (!a.printPins) {
        std::printf("workload %s  seed %llu  jobs %zu  workers %u  "
                    "trace %d\n",
                    c.name.c_str(), static_cast<unsigned long long>(a.seed),
                    c.jobs.size(), workers, a.trace ? 1 : 0);
    }

    // Preparation, not measured: the warm campaign's cache fill.
    std::vector<JobTrace> fill_traces;
    if (c.warm && a.trace) {
        TracedPass fill = runTraced(c, workers, &*cache, false);
        for (size_t i = 0; i < c.jobs.size(); ++i) {
            chk.check(i, "fill", fill.jobs[i].ok, fill.jobs[i].error,
                      fill.jobs[i].snapshot);
            fill_traces.push_back(std::move(fill.jobs[i].trace));
        }
    } else if (c.warm) {
        const std::vector<runner::JobResult> fill = runner.run(c.jobs);
        for (size_t i = 0; i < c.jobs.size(); ++i) {
            chk.check(i, "fill", fill[i].ok, fill[i].error,
                      fill[i].snapshot);
        }
    }

    Metric wall{"wall_s", "s", {}}, cpu{"cpu_s", "s", {}},
        mips{"guest_mips", "MIPS", {}}, jps{"jobs_per_s", "1/s", {}},
        setup{"setup_s", "s", {}};
    if (!a.trace) {
        for (size_t r = 0; r < kSetupReps; ++r)
            setup.samples.push_back(setupSeconds(c));
    }

    // Measured passes.
    std::map<std::string, std::vector<double>> layers;
    std::vector<std::vector<JobTrace>> traces;
    if (!fill_traces.empty())
        traces.push_back(std::move(fill_traces));
    std::vector<double> traced_cpu;
    const double end = wallNow() + a.seconds;
    for (size_t pass = 0;; ++pass) {
        const double w0 = wallNow(), c0 = cpuNow();
        const std::vector<runner::JobResult> results = runner.run(c.jobs);
        const double wall_s = wallNow() - w0, cpu_s = cpuNow() - c0;

        double guest = 0;
        size_t hits = 0;
        std::vector<const sim::RunSnapshot *> snaps;
        for (size_t i = 0; i < c.jobs.size(); ++i) {
            const runner::JobResult &r = results[i];
            chk.check(i, "pass", r.ok, r.error, r.snapshot);
            if (c.warm && r.cacheStatus != runner::CacheStatus::Hit)
                chk.fail(i, "pass", "not served from the result cache");
            hits += r.cacheStatus == runner::CacheStatus::Hit;
            guest += static_cast<double>(r.snapshot.result.guestRetired);
            snaps.push_back(&r.snapshot);
        }
        check_counts(layerCounts(snaps, hits), "pass");
        if (a.printPins) {
            for (size_t i = 0; i < c.jobs.size(); ++i) {
                const Pin p = Pin::of(results[i].snapshot);
                std::printf("%s %s %llu %llu %llu %016llx\n",
                            c.pinSet.c_str(), jobName(c.jobs[i]).c_str(),
                            static_cast<unsigned long long>(p.guestRetired),
                            static_cast<unsigned long long>(p.simCycles),
                            static_cast<unsigned long long>(p.hostRecords),
                            static_cast<unsigned long long>(p.digest));
            }
            return chk.failed ? 1 : 0;
        }
        wall.samples.push_back(wall_s);
        cpu.samples.push_back(cpu_s);
        mips.samples.push_back(guest / cpu_s / 1e6);
        jps.samples.push_back(static_cast<double>(c.jobs.size()) / wall_s);

        if (a.trace) {
            TracedPass tp = runTraced(c, workers, cache ? &*cache : nullptr,
                                      c.warm);
            traced_cpu.push_back(tp.cpuS);
            std::map<std::string, double> sums;
            for (const std::string &name : kLayerTimes)
                sums[name] = 0;
            std::vector<const sim::RunSnapshot *> tsnaps;
            size_t thits = 0;
            std::vector<JobTrace> pass_traces;
            for (size_t i = 0; i < c.jobs.size(); ++i) {
                TracedJob &j = tp.jobs[i];
                chk.check(i, "traced", j.ok, j.error, j.snapshot);
                addLayerTimes(j.trace, sums);
                thits += j.cacheHit;
                tsnaps.push_back(&j.snapshot);
                pass_traces.push_back(std::move(j.trace));
            }
            const std::map<std::string, double> counts =
                layerCounts(tsnaps, thits);
            check_counts(counts, "traced");
            traces.push_back(std::move(pass_traces));
            sums["timing.ns_per_record"] =
                ratio(sums["timing.combined_s"] * 1e9,
                      counts.at("timing.records"));
            sums["tol.ns_per_guest_inst"] =
                ratio(sums["tol.run_self_s"] * 1e9, guest);
            sums["profile.ns_per_access"] =
                ratio(sums["profile.collector_s"] * 1e9,
                      counts.at("profile.data_accesses"));
            for (const auto &[k, v] : sums)
                layers[k].push_back(v);
        }
        const size_t min_passes = a.trace ? kMinTracedPasses : kMinPasses;
        if (pass + 1 >= min_passes && wallNow() >= end)
            break;
    }

    if (c.warm) {
        std::filesystem::remove_all(cache_dir);
        if (a.trace) {
            // The write side is timed during the fill.
            std::map<std::string, double> fill;
            for (const JobTrace &jt : traces.front())
                addLayerTimes(jt, fill);
            layers["runner.cache_store_s"] = {fill["runner.cache_store_s"]};
        }
    }
    const double rss = peakRssMb();
    const bool correct = chk.failed == 0 && counts_repeat;
    std::printf("jobs attempted %zu, failed or mismatched %zu "
                "(failed_frac %.6g)\n",
                chk.attempted, chk.failed,
                ratio(static_cast<double>(chk.failed),
                      static_cast<double>(chk.attempted)));

    std::vector<Metric> out;
    if (!a.trace) {
        const double ok_frac =
            ratio(static_cast<double>(chk.attempted - chk.failed),
                  static_cast<double>(chk.attempted));
        out = {wall, cpu, mips, jps, setup,
               {"peak_rss_mb", "MB", {rss}},
               {"ok_frac", "fraction", {ok_frac}}};
        std::printf("end-to-end metrics (untraced, %u workers):\n",
                    workers);
    } else {
        for (const std::string &name : kLayerTimes)
            out.push_back({name, "s", layers[name]});
        out.push_back({"timing.ns_per_record", "ns",
                       layers["timing.ns_per_record"]});
        out.push_back({"tol.ns_per_guest_inst", "ns",
                       layers["tol.ns_per_guest_inst"]});
        out.push_back({"profile.ns_per_access", "ns",
                       layers["profile.ns_per_access"]});
        for (const auto &[name, value] : *first_counts)
            out.push_back({name, countUnit(name), {value}});
        out.push_back({"trace.cpu_s", "s", traced_cpu});
        out.push_back({"trace.overhead_cpu_s", "s",
                       {median(traced_cpu) - median(cpu.samples)}});
        std::printf("untraced cpu_s: %s\n", describe(cpu.samples).c_str());
        std::printf("per-layer metrics (traced, %u workers):\n", workers);
        const std::string span_file = a.scratch + "/spans-" + c.name +
                                      "-seed" + std::to_string(a.seed) +
                                      ".json";
        if (writeSpans(span_file, traces))
            std::printf("spans written to %s\n", span_file.c_str());
    }
    printReport(out);
    std::printf("%s\n", resultJson(correct, chk, out).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 2;
    }
}
