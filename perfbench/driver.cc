/**
 * @file
 * perfbench: the Fig. 14 sweep benchmark driver.
 *
 *   perfbench --workload fig14-cold|fig14-shard-proc
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             [--grid G --ksteps K --tiles T] [--trace-out FILE]
 *
 * With --trace 0 the driver runs closed-loop sweep passes of the
 * workload for S seconds through the library's public entry points
 * (SimSession::runFig14, ShardCoordinator::run plus a save-serve child)
 * and prints the end-to-end metrics. With --trace 1 it runs the traced
 * breakdown instead: one workload pass with point-level spans, a warm
 * pass, and a seeded slice replay through kernels -> mem -> sim, the
 * result store, the worker pool and the serve RPC path. Every run
 * checks its outputs; the last stdout line is one JSON object.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/fig14_report.h"
#include "dnn/networks.h"
#include "dnn/surface.h"
#include "engine/engine.h"
#include "proc/worker_pool.h"
#include "serve/client.h"
#include "serve/session.h"
#include "shard/coordinator.h"
#include "sim/multicore.h"
#include "util/error.h"
#include "util/frame.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#include "procs.h"
#include "spans.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace save;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------- config

struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Fig14Knobs knobs{};
    /** Simulating threads (or worker processes) every workload uses. */
    int threads = 4;
    std::string work;
    std::string binDir;
    std::string traceOut;
    /** Set-up probe child mode: the store it opens. */
    bool probe = false;
    std::string store;

    std::string workerBin() const { return binDir + "/save-worker"; }
    std::string serveBin() const { return binDir + "/save-serve"; }
    std::string selfBin() const { return binDir + "/perfbench"; }
};

const char *const kWorkloads[] = {"fig14-cold", "fig14-shard-proc"};

/** In-process set-ups timed per run (setup_s is their median). */
constexpr int kSetupReps = 31;
/** Shard-fleet set-ups timed before the first pass (plus one per pass). */
constexpr int kShardSetupReps = 8;
/** Slice keys replayed by the traced run. */
constexpr size_t kReplaySlices = 48;
/** Wall-clock budget of one driver run, seconds. */
constexpr int kWatchdogS = 170;
/** Closed-loop serve RPCs timed by the traced run. */
constexpr int kRpcSamples = 1000;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Correctness ledger shared by every section of a run. */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> mismatches;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            mismatches.push_back(what);
            std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
        }
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest order statistic with at least ten samples above it.
 *  With fewer than eleven samples no such percentile exists; then the
 *  median of the slower half, which one outlying pass cannot set. */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (v.size() >= 11)
        return v[v.size() - 11];
    return median(std::vector<double>(v.begin() + v.size() / 2, v.end()));
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::string
fingerprintJson(const Config &cfg)
{
    std::string cpu = "unknown";
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    std::ostringstream os;
    os << "{\"cpu\":" << jsonQuote(cpu)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"threads\":" << cfg.threads
       << ",\"simd\":" << jsonQuote(simd::backendName())
       << ",\"compiler\":" << jsonQuote(PERFBENCH_COMPILER)
       << ",\"build_type\":" << jsonQuote(PERFBENCH_BUILD_TYPE)
       << ",\"workload\":" << jsonQuote(cfg.workload)
       << ",\"seed\":" << cfg.seed << ",\"knobs\":\"grid="
       << cfg.knobs.gridStep << " ksteps=" << cfg.knobs.kSteps
       << " tiles=" << cfg.knobs.tiles << "\"}";
    return os.str();
}

// ------------------------------------------------------- report parsing

/** One rendered network block of the Fig. 14 report. */
struct ReportBlock
{
    std::string title;
    bool training = false;
    double dynamicSpeedup = NAN;
    bool poisoned = false;
};

std::vector<ReportBlock>
parseReport(const std::string &report)
{
    std::vector<ReportBlock> blocks;
    std::istringstream is(report);
    std::string line;
    bool training = false;
    while (std::getline(is, line)) {
        if (line.rfind("===", 0) == 0) {
            training = line.find("training") != std::string::npos;
            continue;
        }
        size_t b = line.find("  (baseline:");
        if (b != std::string::npos && line[0] != ' ') {
            blocks.push_back({line.substr(0, b), training, NAN, false});
        } else if (blocks.empty() || line.rfind("  ", 0) != 0) {
            continue;
        }
        std::string lower = line;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (lower.find("nan") != std::string::npos ||
            lower.find("inf") != std::string::npos)
            blocks.back().poisoned = true;
        if (line.rfind("  dynamic", 0) == 0)
            blocks.back().dynamicSpeedup = std::atof(line.c_str() + 9);
    }
    return blocks;
}

/** Mean |measured/paper - 1| over the eight MP dynamic speedups the
 *  report's paper-reference line quotes; NaN when one is missing. */
double
paperGap(const std::vector<ReportBlock> &blocks)
{
    struct Ref
    {
        const char *title;
        bool training;
        double paper;
    };
    static const Ref refs[] = {
        {"VGG16 MP dense", false, 1.68},
        {"ResNet-50 MP dense", false, 1.37},
        {"ResNet-50 MP pruned", false, 1.59},
        {"GNMT MP pruned", false, 1.39},
        {"VGG16 MP dense", true, 1.64},
        {"ResNet-50 MP dense", true, 1.29},
        {"ResNet-50 MP pruned", true, 1.42},
        {"GNMT MP pruned", true, 1.28},
    };
    double sum = 0;
    for (const Ref &r : refs) {
        double m = NAN;
        for (const ReportBlock &b : blocks)
            if (b.title == r.title && b.training == r.training)
                m = b.dynamicSpeedup;
        if (!std::isfinite(m))
            return NAN;
        sum += std::fabs(m / r.paper - 1);
    }
    return sum / 8;
}

/** Checks one rendered sweep: every point present and finite. Returns
 *  the number of poisoned points. */
uint64_t
checkReport(Ledger &ledger, const std::string &report,
            const std::string &what)
{
    std::vector<ReportBlock> blocks = parseReport(report);
    uint64_t poisoned = 0;
    for (const ReportBlock &b : blocks)
        poisoned += b.poisoned ? 1 : 0;
    ledger.check(blocks.size() == fig14Points().size(),
                 what + ": report has " + std::to_string(blocks.size()) +
                     " points");
    ledger.check(poisoned == 0, what + ": " + std::to_string(poisoned) +
                                    " NaN point(s)");
    return poisoned;
}

// ------------------------------------------------------ store helpers

/** What a store directory holds on disk. */
struct StoreScan
{
    /** Records appended, duplicates included: one per slice simulation
     *  any backend persisted. */
    uint64_t frames = 0;
    /** Workload digests present (CasKey::wl). */
    std::set<uint64_t> workloads;
};

/** Walks the store's shard files frame by frame (the record layout is
 *  cache/result_store.h's: payload starts u64 cfg, u64 wl). */
StoreScan
scanStore(const std::string &dir)
{
    StoreScan scan;
    for (int s = 0; s < ResultStore::kShards; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "/cas-%02x.savecas", s);
        std::ifstream f(dir + name, std::ios::binary);
        if (!f)
            continue;
        std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
        uint64_t off = 0;
        FrameView v;
        while (frameParse(bytes.data(), bytes.size(), off, v,
                          uint64_t{1} << 30, nullptr) == FrameParse::Ok) {
            const uint8_t *p = v.payload;
            frameGetU64(p, v.payload + v.len); // cfg
            scan.workloads.insert(frameGetU64(p, v.payload + v.len));
            ++scan.frames;
        }
    }
    return scan;
}

std::unique_ptr<ResultStore>
openStore(const std::string &dir)
{
    ResultStore::Options o;
    o.dir = dir;
    return std::make_unique<ResultStore>(o);
}

/** The knobs of an in-process, thread-isolated sweep. */
Fig14Knobs
threadKnobs(const Config &cfg)
{
    Fig14Knobs k = cfg.knobs;
    k.isolation = fig14IsolationCode("thread");
    return k;
}

std::unique_ptr<SimSession>
makeSession(const Config &cfg, ThreadPool *pool, ResultStore *store)
{
    SimSession::Options o;
    o.runtime.workerBin = cfg.workerBin();
    o.runtime.threads = 1;
    o.sharedPool = pool;
    o.sharedStore = store;
    return std::make_unique<SimSession>(std::move(o));
}

/** Renders a sweep over a full store with a fresh session and checks
 *  it simulates nothing and matches `expect` byte for byte. */
void
checkWarmRender(Ledger &ledger, const Config &cfg, const std::string &dir,
                const std::string &expect, const std::string &what)
{
    auto store = openStore(dir);
    auto session = makeSession(cfg, nullptr, store.get());
    std::string again = session->runFig14(threadKnobs(cfg));
    ledger.check(session->simulations() == 0,
                 what + ": warm re-render simulated " +
                     std::to_string(session->simulations()) + " slices");
    ledger.check(again == expect,
                 what + ": report differs from a warm re-render");
}

// ------------------------------------------------------- daemon helpers

std::unique_ptr<Daemon>
startDaemon(const Config &cfg, const std::string &tag,
            const std::string &store, const std::string &isolation,
            int threads)
{
    std::vector<std::string> args = {
        "--socket=" + cfg.work + "/" + tag + ".sock",
        "--workers=1",
        "--threads=" + std::to_string(threads),
        "--cache-dir=" + store,
        "--isolation=" + isolation,
        "--worker-bin=" + cfg.workerBin(),
    };
    return std::make_unique<Daemon>(cfg.serveBin(), args,
                                    cfg.work + "/" + tag + ".sock",
                                    cfg.work + "/" + tag + ".log");
}

ShardCoordinator::Options
shardOptions(const Config &cfg, const std::string &socket,
             const std::string &store)
{
    ShardCoordinator::Options o;
    o.sockets = {socket};
    o.inprocLanes = 2;
    o.journalPath = "";
    o.knobs = cfg.knobs;
    o.knobs.isolation = fig14IsolationCode("process");
    o.runtime.threads = cfg.threads / 2;
    o.runtime.isolation = "process";
    o.runtime.cacheDir = store;
    o.runtime.workerBin = cfg.workerBin();
    return o;
}

// ------------------------------------------------- end-to-end workloads

struct Passes
{
    std::vector<double> wall, cpu, setup;
    double paperGap = NAN;
};

/** Another pass fits: none yet, or the typical pass still ends within
 *  the run's time budget. */
bool
morePasses(const Passes &p, double start, double seconds)
{
    return p.wall.empty() || nowSeconds() - start + median(p.wall) <= seconds;
}

/** Set-up of an in-process sweep as a fresh invocation pays it: a
 *  process start plus pool, store and session construction, timed in
 *  kSetupReps probe children. Returns this process's own pool. */
std::unique_ptr<ThreadPool>
inprocSetup(const Config &cfg, Passes &p)
{
    for (int r = 0; r < kSetupReps; ++r) {
        std::string dir = cfg.work + "/setup-" + std::to_string(r);
        int code = 0;
        p.setup.push_back(runChild(cfg.selfBin(),
                                   {"--probe", "setup", "--store", dir,
                                    "--threads", std::to_string(cfg.threads)},
                                   code));
        if (code != 0)
            throw SimError("set-up probe exited " + std::to_string(code));
        fs::remove_all(dir);
    }
    return std::make_unique<ThreadPool>(cfg.threads - 1);
}

void
runCold(const Config &cfg, Ledger &ledger, Passes &p)
{
    std::unique_ptr<ThreadPool> pool = inprocSetup(cfg, p);
    const Fig14Knobs knobs = threadKnobs(cfg);
    const double start = nowSeconds();
    for (int i = 0; morePasses(p, start, cfg.seconds); ++i) {
        std::string dir = cfg.work + "/cold-" + std::to_string(i);
        double c0 = treeCpuSeconds(), w0 = nowSeconds();
        std::string report;
        {
            auto store = openStore(dir);
            report = makeSession(cfg, pool.get(), store.get())
                         ->runFig14(knobs);
        }
        p.wall.push_back(nowSeconds() - w0);
        p.cpu.push_back(treeCpuSeconds() - c0);

        ledger.attempted += fig14Points().size();
        ledger.failed += checkReport(ledger, report, "cold pass");
        checkWarmRender(ledger, cfg, dir, report, "cold pass");
        if (i == 0)
            p.paperGap = paperGap(parseReport(report));
        fs::remove_all(dir);
    }
}

/** A set-up probe child: builds the in-process infrastructure over
 *  `cfg.store` and exits. */
int
runProbe(const Config &cfg)
{
    auto pool = std::make_unique<ThreadPool>(cfg.threads - 1);
    auto store = openStore(cfg.store);
    makeSession(cfg, pool.get(), store.get());
    return 0;
}

/** The shard workload's set-up: a save-serve daemon over `dir`, ready,
 *  plus a coordinator with two in-process lanes sharing the store. */
struct ShardFleet
{
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<ShardCoordinator> coord;
};

ShardFleet
shardSetup(const Config &cfg, const std::string &tag, const std::string &dir,
           Passes &p)
{
    double s0 = nowSeconds();
    ShardFleet f;
    f.daemon = startDaemon(cfg, tag, dir, "process", cfg.threads / 2);
    f.daemon->waitReady(20000);
    f.coord = std::make_unique<ShardCoordinator>(
        shardOptions(cfg, f.daemon->socket(), dir));
    p.setup.push_back(nowSeconds() - s0);
    return f;
}

void
runShard(const Config &cfg, Ledger &ledger, Passes &p)
{
    // Extra set-ups beyond one per pass, so setup_s is a median of many.
    for (int r = 0; r < kShardSetupReps; ++r) {
        std::string tag = "setup-" + std::to_string(r);
        ShardFleet f = shardSetup(cfg, tag, cfg.work + "/" + tag, p);
        f.coord.reset();
        f.daemon->drain(30000);
    }
    const double start = nowSeconds();
    for (int i = 0; morePasses(p, start, cfg.seconds); ++i) {
        const std::string tag = "shard-" + std::to_string(i);
        const std::string dir = cfg.work + "/" + tag + "-store";
        ShardFleet f = shardSetup(cfg, tag, dir, p);

        double c0 = treeCpuSeconds(), w0 = nowSeconds();
        std::string report = f.coord->run();
        p.wall.push_back(nowSeconds() - w0);
        p.cpu.push_back(treeCpuSeconds() - c0);

        const ShardCoordinator::Stats &st = f.coord->stats();
        ServeStatus ds = f.daemon->status();
        ledger.attempted += fig14Points().size() + st.dispatches;
        ledger.failed += st.failures.size() + st.requeues + ds.shed +
                         ds.errors;
        ledger.check(st.failures.empty(), "shard pass: " +
                         std::to_string(st.failures.size()) +
                         " permanent point failure(s)");
        ledger.failed += checkReport(ledger, report, "shard pass");
        checkWarmRender(ledger, cfg, dir, report, "shard pass");
        if (i == 0)
            p.paperGap = paperGap(parseReport(report));
        f.coord.reset();
        f.daemon->drain(30000);
    }
}

// ------------------------------------------------------------ traced run

/** A surface point sampled the way the estimator builds them. */
struct ReplaySlice
{
    SliceKey key;
    GemmConfig gemm;
    SaveConfig scfg;
};

/** A seeded sample of the slice keys the sweep requested: candidates
 *  built from the Fig. 14 networks, kept when their workload digest is
 *  in `present` (the sweep's store). */
std::vector<ReplaySlice>
sampleSlices(const Config &cfg, const std::set<uint64_t> &present)
{
    const Fig14Knobs &k = cfg.knobs;
    std::set<SliceKey> keys;
    auto addSpec = [&](const KernelSpec &spec, Precision prec) {
        GemmConfig s = spec.slice(prec, 0, 0, k.kSteps, k.seed);
        SliceKey base{};
        base.mr = s.mr;
        base.nr = s.nrVecs;
        base.kSteps = s.kSteps;
        base.pattern = static_cast<uint8_t>(s.pattern);
        base.precision = static_cast<uint8_t>(prec);
        base.vpus = 2;
        keys.insert(base); // baseline: data-oblivious, bins 0/0
        for (uint8_t vpus : {1, 2})
            for (int w = 0; w < SparsitySurface::kGrid; w += k.gridStep)
                for (int a = 0; a < SparsitySurface::kGrid;
                     a += k.gridStep) {
                    SliceKey key = base;
                    key.saveOn = 1;
                    key.vpus = vpus;
                    key.wBin = static_cast<uint8_t>(w);
                    key.aBin = static_cast<uint8_t>(a);
                    keys.insert(key);
                }
    };
    for (const Fig14Point &pt : fig14Points()) {
        const NetworkModel &net = pt.entry.net;
        for (const ConvLayer &l : net.convLayers)
            for (Phase ph :
                 {Phase::Forward, Phase::BwdInput, Phase::BwdWeights})
                addSpec(makeConvKernel(l, ph, net.batch), pt.entry.prec);
        for (const LstmCell &c : net.cells)
            for (Phase ph : {Phase::Forward, Phase::BwdInput})
                addSpec(makeLstmKernel(c, ph), pt.entry.prec);
    }
    std::vector<SliceKey> all;
    for (const SliceKey &key : keys)
        if (present.count(casSliceWorkload(key)))
            all.push_back(key);
    std::mt19937_64 rng(k.seed);
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(std::min(all.size(), kReplaySlices));

    std::vector<ReplaySlice> out;
    for (const SliceKey &key : all) {
        // Mirrors TrainingEstimator::simulateSliceKernel.
        ReplaySlice r;
        r.key = key;
        r.gemm.mr = key.mr;
        r.gemm.nrVecs = key.nr;
        r.gemm.kSteps = key.kSteps;
        r.gemm.tiles = k.tiles;
        r.gemm.pattern = static_cast<BroadcastPattern>(key.pattern);
        r.gemm.precision = static_cast<Precision>(key.precision);
        r.gemm.nbsSparsity = key.wBin * SparsitySurface::kStep;
        r.gemm.bsSparsity = key.aBin * SparsitySurface::kStep;
        r.gemm.seed = k.seed + key.wBin * 131 + key.aBin * 17;
        r.scfg = key.saveOn ? SaveConfig{} : SaveConfig::baseline();
        out.push_back(r);
    }
    return out;
}

CasValue
toCas(const KernelResult &kr)
{
    CasValue v;
    v.timeNs = kr.timeNs;
    v.cycles = kr.cycles;
    v.coreGhz = kr.coreGhz;
    for (const auto &[name, value] : kr.stats.all())
        v.stats.emplace_back(name, value);
    return v;
}

/** What one workload pass did, for the attribution table. */
struct PassCounts
{
    double wall = 0, cpu = 0;
    double sims = 0, hits = 0, lookups = 0, inserts = 0;
    double rpcs = 0;
    bool process = false;
};

/** One in-process sweep over `dir` with a fresh store handle and
 *  session: a span per point (named `point`), then the report rendered
 *  from the collected results. Fills `counts` and returns the report. */
std::string
pointPass(const Config &cfg, SpanRecorder &rec, ThreadPool &pool,
          const std::string &dir, const std::string &label,
          const std::string &point, PassCounts &counts)
{
    const Fig14Knobs knobs = threadKnobs(cfg);
    Scoped pass(rec, label, "dnn");
    double c0 = treeCpuSeconds(), w0 = nowSeconds();
    std::unique_ptr<ResultStore> store;
    {
        Scoped s(rec, "cache.open", "cache");
        store = openStore(dir);
    }
    auto session = makeSession(cfg, &pool, store.get());
    std::vector<NetResult> results;
    for (size_t i = 0; i < fig14Points().size(); ++i) {
        Scoped s(rec, point, "dnn", fig14Points()[i].key);
        results.push_back(session->runFig14Point(knobs, static_cast<int>(i)));
    }
    std::string report;
    {
        Scoped s(rec, "dnn.render", "dnn");
        size_t next = 0;
        report = fig14Report([&](const std::string &, const Fig14Entry &,
                                 bool) { return results[next++]; });
    }
    counts.wall = nowSeconds() - w0;
    counts.cpu = treeCpuSeconds() - c0;
    counts.sims = static_cast<double>(session->simulations());
    counts.hits = static_cast<double>(store->hits());
    counts.lookups = static_cast<double>(store->hits() + store->misses());
    counts.inserts = static_cast<double>(store->inserts());
    return report;
}

/** Per-slice layer costs from the replay (seconds, thread CPU unless
 *  noted). */
struct SliceCosts
{
    std::vector<double> buildUs, machineUs, warmupUs, runMs, engineSelfUs,
        ipcUs;
    double buildCpu = 0, memCpu = 0, runCpu = 0, engineSelfCpu = 0,
           ipcCpu = 0;
    double uops = 0, cycles = 0, ffSkipped = 0, runWall = 0;
    size_t n = 0;
};

void
replaySlices(const Config &cfg, SpanRecorder &rec, Ledger &ledger,
             const std::vector<ReplaySlice> &slices, WorkerPool &workers,
             SliceCosts &c)
{
    const MachineConfig mcfg{};
    for (const ReplaySlice &s : slices) {
        std::ostringstream label;
        label << "mr=" << s.key.mr << " nr=" << s.key.nr
              << " k=" << s.key.kSteps << " prec=" << int(s.key.precision)
              << " save=" << int(s.key.saveOn) << " vpus="
              << int(s.key.vpus) << " w=" << int(s.key.wBin)
              << " a=" << int(s.key.aBin);
        const std::string key = label.str();
        Scoped slice(rec, "slice", "engine", key);

        // kernels -> mem -> sim, in Engine::runGemm's order (1 core).
        uint64_t cycles = 0;
        double tb = 0, tm = 0, tw = 0, tr = 0, cb = 0, cm = 0, cr = 0;
        auto chain = [&] {
            MachineConfig mc = mcfg;
            mc.dramGBps = mcfg.dramGBps / mcfg.cores;
            mc.cores = 1;
            int id = rec.begin("kernels.build", "kernels", key);
            MemoryImage image;
            std::vector<GemmWorkload> work =
                buildShardedGemm(s.gemm, image, 1);
            tb = rec.end(id);
            cb = rec.spans()[static_cast<size_t>(id)].cpu();

            id = rec.begin("mem.machine_build", "mem", key);
            Multicore machine(mc, s.scfg, s.key.vpus, &image);
            tm = rec.end(id);
            cm = rec.spans()[static_cast<size_t>(id)].cpu();

            id = rec.begin("mem.warmup", "mem", key);
            work[0].warmup(machine.hierarchy());
            tw = rec.end(id);
            cm += rec.spans()[static_cast<size_t>(id)].cpu();

            VectorTrace trace(work[0].trace);
            machine.bindTraces({&trace});
            id = rec.begin("sim.run", "sim", key);
            cycles = machine.run();
            tr = rec.end(id);
            cr = rec.spans()[static_cast<size_t>(id)].cpu();
            c.ffSkipped +=
                static_cast<double>(machine.core(0).ffCyclesSkipped());
            c.uops += static_cast<double>(work[0].trace.size());
        };
        // The whole slice through the estimator's entry point; alternate
        // which of the two runs first so host-cache warmth does not bias
        // engine.self_us.
        KernelResult kr;
        double te = 0, ce = 0;
        auto whole = [&] {
            int id = rec.begin("engine.simulateSliceKernel", "engine", key);
            kr = TrainingEstimator::simulateSliceKernel(
                mcfg, SaveConfig{}, s.key, s.gemm.tiles, 1, cfg.knobs.seed);
            te = rec.end(id);
            ce = rec.spans()[static_cast<size_t>(id)].cpu();
        };
        if (c.n % 2) {
            whole();
            chain();
        } else {
            chain();
            whole();
        }

        // The same key through a sandboxed worker; its CPU is the
        // parent's thread plus the worker's.
        double workerCpu0 = descendantsSchedCpuSeconds();
        int id = rec.begin("proc.runSlice", "proc", key);
        WireSliceResult wr = workers.runSlice(s.key, 0, 1);
        double tp = rec.end(id);
        double cp = rec.spans()[static_cast<size_t>(id)].cpu() +
                    descendantsSchedCpuSeconds() - workerCpu0;

        std::string detail;
        bool verified = false;
        {
            Scoped v(rec, "engine.verifyGemm", "engine", key);
            verified = Engine(mcfg, s.scfg).verifyGemm(s.gemm, s.key.vpus,
                                                      &detail);
        }
        ledger.attempted += 1;
        bool ok = verified && kr.cycles == cycles && wr.cycles == cycles &&
                  std::isfinite(kr.timeNs);
        ledger.failed += ok ? 0 : 1;
        ledger.check(verified, "verifyGemm " + key + ": " + detail);
        ledger.check(kr.cycles == cycles,
                     "replay cycles differ from simulateSliceKernel: " + key);
        ledger.check(wr.cycles == cycles,
                     "worker cycles differ from in-process: " + key);

        c.buildUs.push_back(tb * 1e6);
        c.machineUs.push_back(tm * 1e6);
        c.warmupUs.push_back(tw * 1e6);
        c.runMs.push_back(tr * 1e3);
        c.engineSelfUs.push_back((te - tb - tm - tw - tr) * 1e6);
        c.ipcUs.push_back((tp - te) * 1e6);
        c.buildCpu += cb;
        c.memCpu += cm;
        c.runCpu += cr;
        c.engineSelfCpu += ce - cb - cm - cr;
        c.ipcCpu += cp - ce;
        c.cycles += static_cast<double>(cycles);
        c.runWall += tr;
        c.n += 1;
    }
}

/** Closed loop of cache-hit gemm RPCs on one daemon. */
struct RpcResult
{
    double readyMs = 0, p50Us = 0, p99Us = 0;
    double shed = 0, errors = 0;
};

RpcResult
rpcLoop(const Config &cfg, SpanRecorder &rec, Ledger &ledger,
        const ReplaySlice &s)
{
    RpcResult out;
    const std::string store = cfg.work + "/rpc-store";
    auto daemon = startDaemon(cfg, "rpc", store, "thread", 1);
    {
        Scoped sp(rec, "serve.ready", "serve");
        out.readyMs = daemon->waitReady(20000);
    }
    ServeRequest req;
    req.kind = ServeKind::Gemm;
    req.gemm = s.gemm;
    req.cores = 1;
    req.vpus = s.key.vpus;
    const uint64_t want =
        Engine(MachineConfig{}, SaveConfig{}).runGemm(s.gemm, 1, s.key.vpus)
            .cycles;
    ServeClient client(daemon->socket());
    std::vector<double> lat;
    {
        Scoped sp(rec, "serve.rpc_loop", "serve");
        for (int i = 0; i <= kRpcSamples; ++i) {
            double t0 = nowSeconds();
            ServeClient::Reply r = client.call(req, nullptr, 60000);
            double dt = nowSeconds() - t0;
            ledger.attempted += 1;
            if (r.kind == ServeClient::Reply::Kind::Busy)
                out.shed += 1;
            else if (r.kind == ServeClient::Reply::Kind::Error)
                out.errors += 1;
            bool ok = r.kind == ServeClient::Reply::Kind::Ok &&
                      r.gemm.cycles == want;
            ledger.failed += ok ? 0 : 1;
            if (!ok) {
                ledger.check(false, "served gemm reply wrong or refused");
                break;
            }
            if (i > 0) // the first call simulates; the rest are hits
                lat.push_back(dt * 1e6);
        }
    }
    ServeStatus st = daemon->status();
    out.shed = std::max(out.shed, static_cast<double>(st.shed));
    out.errors = std::max(out.errors, static_cast<double>(st.errors));
    out.p50Us = median(lat);
    out.p99Us = tail(lat);
    daemon->drain(30000);
    return out;
}

/** Worker spawn cost: first slice on a fresh pool minus the second. */
double
spawnMs(const WireSessionInit &init, const ProcOptions &popt,
        const ReplaySlice &s, SpanRecorder &rec)
{
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
        WorkerPool pool(popt, init);
        int id = rec.begin("proc.first_slice", "proc");
        pool.runSlice(s.key, 0, 1);
        double first = rec.end(id);
        id = rec.begin("proc.second_slice", "proc");
        pool.runSlice(s.key, 0, 1);
        double second = rec.end(id);
        ms.push_back((first - second) * 1e3);
    }
    return median(ms);
}

/** The workload's own path in the traced run. */
struct WorkloadTrace
{
    PassCounts pass;     ///< the workload's pass
    PassCounts warm;     ///< a warm point pass over the full store
    /** Spans recorded during the workload's pass: [begin, end). */
    size_t spansBegin = 0, spansEnd = 0;
    double dispatches = 0, requeues = 0, speculative = 0;
};

/** Runs the workload's path once with point-level spans, then a warm
 *  point pass over the `store` it filled, which must reproduce the
 *  report byte for byte without simulating. */
WorkloadTrace
traceWorkload(const Config &cfg, SpanRecorder &rec, Ledger &ledger,
              ThreadPool &pool, const std::string &store)
{
    WorkloadTrace t;
    std::string report;
    ledger.attempted += fig14Points().size();
    if (cfg.workload == "fig14-cold") {
        t.spansBegin = rec.spans().size();
        report = pointPass(cfg, rec, pool, store, "pass.cold",
                           "dnn.point.cold", t.pass);
        t.spansEnd = rec.spans().size();
    } else {
        std::unique_ptr<Daemon> daemon;
        {
            Scoped s(rec, "serve.spawn", "serve");
            daemon = startDaemon(cfg, "shard", store, "process",
                                 cfg.threads / 2);
            daemon->waitReady(20000);
        }
        std::unique_ptr<ShardCoordinator> coord;
        {
            Scoped s(rec, "shard.setup", "shard");
            coord = std::make_unique<ShardCoordinator>(
                shardOptions(cfg, daemon->socket(), store));
        }
        t.spansBegin = rec.spans().size();
        {
            Scoped s(rec, "shard.run", "shard");
            double c0 = treeCpuSeconds(), w0 = nowSeconds();
            report = coord->run();
            t.pass.wall = nowSeconds() - w0;
            t.pass.cpu = treeCpuSeconds() - c0;
        }
        t.spansEnd = rec.spans().size();
        const ShardCoordinator::Stats &st = coord->stats();
        ServeStatus ds = daemon->status();
        const ResultStore *lane = coord->resultStore();
        // Every backend persists what it simulates; workers look a slice
        // up once more before simulating it.
        t.pass.sims = static_cast<double>(scanStore(store).frames);
        t.pass.inserts = t.pass.sims;
        t.pass.hits = static_cast<double>(lane->hits() + ds.casHits);
        t.pass.lookups = static_cast<double>(lane->hits() + lane->misses() +
                                             ds.casHits + ds.casMisses) +
                         t.pass.sims;
        t.pass.rpcs = static_cast<double>(st.dispatches) +
                      static_cast<double>(fig14Points().size());
        t.pass.process = true;
        t.dispatches = static_cast<double>(st.dispatches);
        t.requeues = static_cast<double>(st.requeues);
        t.speculative = static_cast<double>(st.speculative);
        ledger.attempted += st.dispatches;
        ledger.failed += st.failures.size() + st.requeues + ds.shed +
                         ds.errors;
        {
            Scoped s(rec, "serve.drain", "serve");
            daemon->drain(30000);
        }
        coord.reset();
        // The longest cold point, in-process with the full budget.
        PassCounts critical;
        pointPass(cfg, rec, pool, cfg.work + "/critical-store",
                  "pass.critical", "dnn.point.cold", critical);
    }
    ledger.failed += checkReport(ledger, report, "traced pass");
    std::string warm = pointPass(cfg, rec, pool, store, "pass.warm",
                                 "dnn.point.warm", t.warm);
    ledger.check(warm == report && t.warm.sims == 0,
                 "traced warm pass differs from the workload's report or "
                 "simulated slices");
    return t;
}

/** Per-operation result-store costs: batched inserts, then hits. */
struct StoreCosts
{
    double insertUs = 0, lookupUs = 0;
};

StoreCosts
storeCosts(const Config &cfg, SpanRecorder &rec, Ledger &ledger,
           const ReplaySlice &s)
{
    const int n = 512, rounds = 4;
    auto store = openStore(cfg.work + "/replay-store");
    CasValue v = toCas(TrainingEstimator::simulateSliceKernel(
        MachineConfig{}, SaveConfig{}, s.key, s.gemm.tiles, 1,
        cfg.knobs.seed));
    StoreCosts c;
    int id = rec.begin("cache.insert", "cache");
    for (int i = 0; i < n; ++i)
        store->insert(CasKey{static_cast<uint64_t>(i) + 1, 7}, v);
    c.insertUs = rec.end(id) / n * 1e6;
    int hits = 0;
    id = rec.begin("cache.lookup", "cache");
    for (int r = 0; r < rounds; ++r)
        for (int i = 0; i < n; ++i) {
            CasValue out;
            hits += store->lookup(CasKey{static_cast<uint64_t>(i) + 1, 7},
                                  &out);
        }
    c.lookupUs = rec.end(id) / (rounds * n) * 1e6;
    ledger.check(hits == rounds * n, "result store lost inserted records");
    return c;
}

/** Seconds one span costs the recorder. */
double
spanCostSeconds()
{
    SpanRecorder scratch;
    const int n = 20000;
    double t0 = nowSeconds();
    for (int i = 0; i < n; ++i)
        scratch.end(scratch.begin("x", "x"));
    return (nowSeconds() - t0) / n;
}

struct Attr
{
    const char *layer;
    double cpu; ///< CPU seconds of the workload pass charged to it
};

void
printTables(const Config &cfg, const SpanRecorder &rec,
            const PassCounts &pass, const std::vector<Attr> &attr,
            double unattributed)
{
    std::fprintf(stderr,
                 "\nper-layer attribution of one %s pass: %.3f s wall, "
                 "%.3f s CPU, %.0f slice simulations, %.0f store "
                 "lookups\n  %-8s %12s %8s\n",
                 cfg.workload.c_str(), pass.wall, pass.cpu, pass.sims,
                 pass.lookups, "layer", "cpu_s", "share");
    double attributed = 0;
    for (const Attr &a : attr) {
        std::fprintf(stderr, "  %-8s %12.4f %7.2f%%\n", a.layer, a.cpu,
                     100 * a.cpu / pass.cpu);
        attributed += a.cpu;
    }
    std::fprintf(stderr, "  %-8s %12.4f %7.2f%%  (unattributed_frac)\n",
                 "other", pass.cpu - attributed, 100 * unattributed);
    std::fprintf(stderr, "\nspan self time (wall):\n  %-28s %10s\n",
                 "span", "self_s");
    for (const auto &[name, self] : rec.selfWallByName())
        std::fprintf(stderr, "  %-28s %10.4f\n", name.c_str(), self);
}

void
tracedRun(const Config &cfg, Ledger &ledger, std::vector<Metric> &m)
{
    SpanRecorder rec;
    Scoped root(rec, "run", "driver", cfg.workload);
    ThreadPool pool(cfg.threads - 1);

    // 1. The workload's own pass, then a warm pass over its store.
    const std::string fullStore = cfg.work + "/store";
    WorkloadTrace wt = traceWorkload(cfg, rec, ledger, pool, fullStore);
    const PassCounts &pass = wt.pass;
    const StoreScan scan = scanStore(fullStore);
    const double frames = static_cast<double>(scan.frames);
    double records = 0, bytes = 0, openMs = 0;
    {
        int id = rec.begin("cache.open.full", "cache");
        auto store = openStore(fullStore);
        openMs = rec.end(id) * 1e3;
        records = static_cast<double>(store->records());
        bytes = static_cast<double>(store->bytes());
    }

    // 2. Seeded slice replay: kernels -> mem -> sim, engine, proc.
    std::vector<ReplaySlice> slices = sampleSlices(cfg, scan.workloads);
    if (slices.empty())
        throw SimError("no replayable slice keys in the workload's store");
    WireSessionInit init;
    init.scfg = SaveConfig{};
    init.tiles = cfg.knobs.tiles;
    init.cores = 1;
    init.seed = cfg.knobs.seed;
    ProcOptions popt;
    popt.workers = 1;
    popt.workerBin = cfg.workerBin();
    SliceCosts costs;
    double crashes = 0, respawns = 0;
    {
        WorkerPool workers(popt, init);
        Scoped s(rec, "replay", "engine");
        replaySlices(cfg, rec, ledger, slices, workers, costs);
        crashes = workers.crashes();
        respawns = workers.respawns();
    }
    const ReplaySlice *smallest = &slices.front();
    for (const ReplaySlice &s : slices)
        if (s.gemm.macs() < smallest->gemm.macs())
            smallest = &s;
    double spawn = spawnMs(init, popt, *smallest, rec);

    // 3. Result store and serve RPC costs.
    StoreCosts sc = storeCosts(cfg, rec, ledger, *smallest);
    RpcResult rpc = rpcLoop(cfg, rec, ledger, *smallest);
    root.close();

    // Charge the workload pass's CPU to layers: counts from the pass
    // times per-operation costs from the replay and the warm pass.
    std::vector<double> pointMs;
    double pointCpu = 0, renderCpu = 0, renderMs = 0, openCpu = 0;
    for (size_t i = 0; i < rec.spans().size(); ++i) {
        const Span &s = rec.spans()[i];
        if (s.name == "dnn.point.warm") {
            pointMs.push_back(s.wall() * 1e3);
            pointCpu += s.cpu();
        } else if (s.name == "dnn.render") { // the warm pass's is last
            renderCpu = s.cpu();
            renderMs = s.wall() * 1e3;
        } else if (s.name == "cache.open" && i >= wt.spansBegin &&
                   i < wt.spansEnd) {
            openCpu += s.cpu();
        }
    }
    const double n = static_cast<double>(costs.n);
    const double lookupS = sc.lookupUs * 1e-6;
    const double dnnBook = std::max(0.0, pointCpu - wt.warm.lookups * lookupS);
    const std::vector<Attr> attr = {
        {"kernels", pass.sims * costs.buildCpu / n},
        {"mem", pass.sims * costs.memCpu / n},
        {"sim", pass.sims * costs.runCpu / n},
        {"engine", pass.sims * costs.engineSelfCpu / n},
        {"cache", openCpu + pass.lookups * lookupS +
                      pass.inserts * sc.insertUs * 1e-6},
        {"dnn", dnnBook + renderCpu},
        {"proc", pass.process ? pass.sims * costs.ipcCpu / n : 0},
        {"serve", pass.rpcs * rpc.p50Us * 1e-6},
    };
    double attributed = 0;
    for (const Attr &a : attr)
        attributed += a.cpu;
    const double unattributed = 1 - attributed / pass.cpu;
    printTables(cfg, rec, pass, attr, unattributed);
    if (!cfg.traceOut.empty()) {
        rec.writeChromeTrace(cfg.traceOut, fingerprintJson(cfg));
        std::fprintf(stderr, "chrome trace: %s (%zu spans)\n",
                     cfg.traceOut.c_str(), rec.spans().size());
    }

    auto add = [&](const std::string &name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };
    add("kernels.build_us", mean(costs.buildUs), "us");
    add("kernels.uops", costs.uops, "count");
    add("mem.machine_build_us", mean(costs.machineUs), "us");
    add("mem.warmup_us", mean(costs.warmupUs), "us");
    add("sim.run_ms", mean(costs.runMs), "ms");
    add("sim.host_ns_per_cycle", costs.runWall * 1e9 / costs.cycles, "ns");
    add("sim.uops_per_cpu_s", costs.uops / costs.runCpu, "1/s");
    add("sim.ff_skip_frac", costs.ffSkipped / costs.cycles, "ratio");
    add("sim.cycles", costs.cycles, "count");
    add("sim.ipc", costs.uops / costs.cycles, "uops/cycle");
    add("engine.self_us", mean(costs.engineSelfUs), "us");
    add("dnn.point_ms_p50", median(pointMs), "ms");
    add("dnn.point_ms_max", *std::max_element(pointMs.begin(), pointMs.end()),
        "ms");
    add("dnn.render_ms", renderMs, "ms");
    add("dnn.slice_requests", wt.warm.lookups, "count");
    double critical = 0;
    for (const Span &s : rec.spans())
        if (s.name == "dnn.point.cold")
            critical = std::max(critical, s.wall());
    add("dnn.critical_point_s", critical, "s");
    add("cache.open_ms", openMs, "ms");
    add("cache.lookup_us", sc.lookupUs, "us");
    add("cache.insert_us", sc.insertUs, "us");
    add("cache.hit_ratio", pass.lookups > 0 ? pass.hits / pass.lookups : 0,
        "ratio");
    add("cache.records", records, "count");
    add("cache.bytes", bytes, "bytes");
    add("pool.util", pass.cpu / (cfg.threads * pass.wall), "ratio");
    add("proc.spawn_ms", spawn, "ms");
    add("proc.ipc_us", mean(costs.ipcUs), "us");
    add("proc.crashes", crashes, "count");
    add("proc.respawns", respawns, "count");
    add("serve.ready_ms", rpc.readyMs, "ms");
    add("serve.rpc_p50_us", rpc.p50Us, "us");
    add("serve.rpc_p99_us", rpc.p99Us, "us");
    add("serve.rpc_samples", kRpcSamples, "count");
    add("serve.shed", rpc.shed, "count");
    add("serve.errors", rpc.errors, "count");
    add("shard.dispatches", wt.dispatches, "count");
    add("shard.requeues", wt.requeues, "count");
    add("shard.speculative", wt.speculative, "count");
    add("shard.sims_per_slice", records > 0 ? frames / records : 0, "ratio");
    for (const Attr &a : attr)
        add(std::string("attr.") + a.layer + "_frac", a.cpu / pass.cpu,
            "ratio");
    const double passSpans =
        static_cast<double>(wt.spansEnd - wt.spansBegin);
    add("trace.overhead_frac", passSpans * spanCostSeconds() / pass.wall,
        "ratio");
    add("unattributed_frac", unattributed, "ratio");
}

// ------------------------------------------------------------------ main

/** A run that overstays its budget kills and reaps every child and
 *  fails, instead of hanging or leaking workers. */
class Watchdog
{
  public:
    explicit Watchdog(int seconds)
        : thread_([this, seconds] {
              std::unique_lock<std::mutex> lk(mu_);
              if (cv_.wait_for(lk, std::chrono::seconds(seconds),
                               [this] { return done_; }))
                  return;
              std::fprintf(stderr, "perfbench: watchdog: run exceeded %d s\n",
                           seconds);
              killAndReapDescendants();
              std::_Exit(3);
          })
    {
    }
    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig14-cold|fig14-shard-proc --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--grid G "
                 "--ksteps K --tiles T] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Config
parseArgs(int argc, char **argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::stoull(v);
        else if (a == "--seconds")
            cfg.seconds = std::stod(v);
        else if (a == "--trace")
            cfg.trace = v == "1";
        else if (a == "--workdir")
            cfg.work = v;
        else if (a == "--trace-out")
            cfg.traceOut = v;
        else if (a == "--grid")
            cfg.knobs.gridStep = std::stoi(v);
        else if (a == "--ksteps")
            cfg.knobs.kSteps = std::stoi(v);
        else if (a == "--tiles")
            cfg.knobs.tiles = std::stoi(v);
        else if (a == "--probe")
            cfg.probe = v == "setup";
        else if (a == "--store")
            cfg.store = v;
        else if (a == "--threads")
            cfg.threads = std::stoi(v);
        else
            usage(("unknown flag " + a).c_str());
    }
    cfg.knobs.seed = cfg.seed;
    std::string self = fs::read_symlink("/proc/self/exe").string();
    cfg.binDir = fs::path(self).parent_path().string();
    if (cfg.probe)
        return cfg;
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  cfg.workload) == std::end(kWorkloads))
        usage("unknown workload");
    if (cfg.work.empty())
        usage("--workdir is required");
    int nproc = static_cast<int>(std::thread::hardware_concurrency());
    cfg.threads = std::clamp(nproc, 2, 4);
    return cfg;
}

void
printJson(const Ledger &ledger, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += ledger.mismatches.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ledger.attempted);
    out += ", \"failed\": " + std::to_string(ledger.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : -1.0);
        out += (i ? ", " : "") + jsonQuote(m.name) + ": {\"value\": " +
               buf + ", \"unit\": " + jsonQuote(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
run(const Config &cfg)
{
    Ledger ledger;
    std::vector<Metric> metrics;
    std::printf("fingerprint %s\n", fingerprintJson(cfg).c_str());
    std::fflush(stdout);

    if (cfg.trace) {
        tracedRun(cfg, ledger, metrics);
    } else {
        Passes p;
        if (cfg.workload == "fig14-cold")
            runCold(cfg, ledger, p);
        else
            runShard(cfg, ledger, p);
        ledger.check(std::isfinite(p.paperGap),
                     "report lacks a Fig. 14 MP dynamic speedup");
        std::fprintf(stderr, "%s: %zu passes, wall s:", cfg.workload.c_str(),
                     p.wall.size());
        for (double w : p.wall)
            std::fprintf(stderr, " %.3f", w);
        std::fprintf(stderr, "\n%s: cpu s:", cfg.workload.c_str());
        for (double c : p.cpu)
            std::fprintf(stderr, " %.3f", c);
        std::vector<double> su = p.setup;
        std::sort(su.begin(), su.end());
        std::fprintf(stderr,
                     "\n%s: setup median %.6f s over %zu setups "
                     "(min %.6f, max %.6f)\n",
                     cfg.workload.c_str(), median(p.setup), p.setup.size(),
                     su.front(), su.back());
        double okRatio =
            ledger.attempted
                ? 1.0 - static_cast<double>(ledger.failed) / ledger.attempted
                : 0.0;
        metrics = {
            {"sweep_s", median(p.wall), "s"},
            {"sweep_tail_s", tail(p.wall), "s"},
            {"sweep_cpu_s", median(p.cpu), "s"},
            {"setup_s", median(p.setup), "s"},
            {"peak_rss_mb", 0, "MB"},
            {"ok_ratio", okRatio, "ratio"},
            {"paper_gap", p.paperGap, "ratio"},
        };
    }

    // Process hygiene: every child must already be gone.
    int leaked = killAndReapDescendants();
    ledger.check(leaked == 0,
                 std::to_string(leaked) + " child process(es) leaked");
    if (!cfg.trace)
        metrics[4].value = treePeakRssMb();
    printJson(ledger, metrics);
    return ledger.mismatches.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg = parseArgs(argc, argv);
    if (cfg.probe)
        return runProbe(cfg);
    int rc = 1;
    try {
        becomeSubreaper();
        Watchdog watchdog(kWatchdogS);
        fs::remove_all(cfg.work);
        fs::create_directories(cfg.work);
        rc = run(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        killAndReapDescendants();
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(cfg.work, ec);
    return rc;
}
