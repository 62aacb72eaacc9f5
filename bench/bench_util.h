/**
 * @file
 * Shared helpers for the per-figure/table reproduction harnesses:
 * trivial flag parsing and the standard slice configuration used
 * across figures.
 *
 * Common flags:
 *   --grid=N        sparsity-grid stride for estimator-driven figures
 *   --ksteps=N      slice K length
 *   --tiles=N       register tiles per slice
 *   --cores=N       active cores per slice simulation
 *   --seed=N        estimator workload seed (default 7)
 *   --threads=N     host threads for the simulation fan-out
 *                   (0 = SAVE_THREADS env or hardware concurrency)
 *   --cache-dir=D   persistent result store ("none" disables; default
 *                   is the SAVE_CACHE_DIR environment variable)
 *   --cache-max-mb=N result-store size cap; LRU eviction past it
 *                   (0 = SAVE_CACHE_MAX_MB env, unlimited by default)
 *   --cache-stats   print store counters (hits/misses/inserts/
 *                   evictions/bytes) to stderr after the run
 *   --max-retries=N retries for a failed sweep point / slice (default 2)
 *   --fail-fast     abort the sweep on the first permanent failure
 *   --max-failures=N tolerated permanently failed sweep points
 *                   before a nonzero exit (default 0: any failure
 *                   fails the run, but only after the whole sweep
 *                   completes)
 *   --journal=PATH  crash-safe sweep journal ("none" disables; default
 *                   is the SAVE_JOURNAL environment variable). An
 *                   interrupted run resumes from completed points.
 *   --trace-events=F write a Perfetto/Chrome pipeline event trace of
 *                   every machine the bench runs (sets
 *                   SAVE_TRACE_EVENTS; see src/trace/event_trace.h)
 *
 * Isolation flags (sandboxed slice workers, src/proc; results are
 * bit-identical across modes):
 *   --isolation=M   none | thread (default) | process; default is the
 *                   SAVE_ISOLATION environment variable
 *   --workers=N     worker processes (0 = match --threads)
 *   --worker-timeout-ms=N  per-slice wall-clock deadline (SIGKILL on
 *                   expiry; default 30000)
 *   --max-worker-crashes=N  pool-wide crash budget before degrading
 *                   to in-process execution (default 8)
 *   --worker-max-slices=N  recycle each worker after N slices (0 =
 *                   never)
 *   --worker-rss-mb=N  RLIMIT_AS cap per worker (0 = none)
 *   --worker-bin=P  explicit save-worker binary (default: sibling of
 *                   the bench, or SAVE_WORKER_BIN)
 */

#ifndef SAVE_BENCH_BENCH_UTIL_H
#define SAVE_BENCH_BENCH_UTIL_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "engine/engine.h"
#include "serve/session.h"
#include "util/error.h"
#include "util/journal.h"
#include "util/logging.h"
#include "util/runtime_options.h"
#include "util/thread_pool.h"

namespace save {

/** Tiny --key=value flag reader. Malformed values throw ConfigError
 *  (caught by benchMain, which prints usage and exits cleanly). */
class Flags
{
  public:
    Flags(int argc, char **argv) : argc_(argc), argv_(argv) {}

    int
    getInt(const char *name, int def) const
    {
        std::string prefix = std::string("--") + name + "=";
        for (int i = 1; i < argc_; ++i) {
            if (std::strncmp(argv_[i], prefix.c_str(),
                             prefix.size()) != 0)
                continue;
            const char *text = argv_[i] + prefix.size();
            char *end = nullptr;
            errno = 0;
            long v = std::strtol(text, &end, 10);
            if (*text == '\0' || end == nullptr || *end != '\0' ||
                errno == ERANGE || v < std::numeric_limits<int>::min() ||
                v > std::numeric_limits<int>::max())
                throw ConfigError(std::string("--") + name +
                                  " expects an integer (got '" + text +
                                  "')");
            return static_cast<int>(v);
        }
        return def;
    }

    std::string
    getStr(const char *name, const char *def) const
    {
        std::string prefix = std::string("--") + name + "=";
        for (int i = 1; i < argc_; ++i)
            if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) ==
                0)
                return argv_[i] + prefix.size();
        return def;
    }

    bool
    has(const char *name) const
    {
        std::string flag = std::string("--") + name;
        for (int i = 1; i < argc_; ++i)
            if (flag == argv_[i])
                return true;
        return false;
    }

  private:
    int argc_;
    char **argv_;
};

/** The five Fig. 14 shape knobs (--grid/--ksteps/--tiles/--cores/
 *  --seed) over Fig14Knobs' defaults. Fan-out and isolation stay at
 *  their defaults: they are each front end's own business. */
inline Fig14Knobs
fig14Knobs(const Flags &flags)
{
    Fig14Knobs k;
    k.gridStep = flags.getInt("grid", k.gridStep);
    k.kSteps = flags.getInt("ksteps", k.kSteps);
    k.tiles = flags.getInt("tiles", k.tiles);
    k.cores = flags.getInt("cores", k.cores);
    k.seed = static_cast<uint64_t>(
        flags.getInt("seed", static_cast<int>(k.seed)));
    return k;
}

/** Estimator options from flags: the fig14Knobs() shape (grid=3
 *  keeps default runs quick; --grid=1 reproduces the paper's full 10%
 *  sampling) plus fan-out, store, retry and isolation flags. */
inline EstimatorOptions
estimatorOptions(const Flags &flags)
{
    const Fig14Knobs k = fig14Knobs(flags);
    EstimatorOptions o;
    o.gridStep = k.gridStep;
    o.kSteps = k.kSteps;
    o.tiles = k.tiles;
    o.cores = k.cores;
    o.seed = k.seed;
    o.threads = flags.getInt("threads", 0);
    o.cacheDir = flags.getStr("cache-dir", "");
    o.cacheMaxMb = flags.getInt("cache-max-mb", 0);
    o.maxRetries = flags.getInt("max-retries", o.maxRetries);
    o.failFast = flags.has("fail-fast");
    o.isolation = flags.getStr("isolation", "");
    o.proc.workers = flags.getInt("workers", o.proc.workers);
    o.proc.sliceTimeoutMs =
        flags.getInt("worker-timeout-ms", o.proc.sliceTimeoutMs);
    o.proc.maxWorkerCrashes =
        flags.getInt("max-worker-crashes", o.proc.maxWorkerCrashes);
    o.proc.maxSlicesPerWorker =
        flags.getInt("worker-max-slices", o.proc.maxSlicesPerWorker);
    o.proc.rssCapMb = flags.getInt("worker-rss-mb", o.proc.rssCapMb);
    o.proc.workerBin = flags.getStr("worker-bin", "");
    o.validate();
    return o;
}

/** The result store --cache-dir/--cache-max-mb name (defaulting to
 *  SAVE_CACHE_DIR / SAVE_CACHE_MAX_MB). The Engine-driven benches
 *  memoize through it with runGemmCached(); the estimator-driven ones
 *  open the same directory, and the config/workload digests keep the
 *  two key spaces apart. */
inline ResultStore::Options
storeOptions(const Flags &flags)
{
    ResultStore::Options o;
    o.dir = ResultStore::resolveDir(flags.getStr("cache-dir", ""));
    o.maxBytes =
        ResultStore::resolveMaxBytes(flags.getInt("cache-max-mb", 0));
    return o;
}

/**
 * The environment snapshot with the flags save-serve and save-shard
 * share (--threads, --isolation, --cache-dir, --cache-max-mb,
 * --worker-bin) laid over it. A bad --isolation fails here, at
 * startup.
 */
inline RuntimeOptions
runtimeOptions(const Flags &flags)
{
    RuntimeOptions rt = RuntimeOptions::fromEnv();
    if (int threads = flags.getInt("threads", 0); threads != 0)
        rt.threads = threads;
    if (std::string iso = flags.getStr("isolation", ""); !iso.empty())
        rt.isolation = iso;
    if (std::string dir = flags.getStr("cache-dir", ""); !dir.empty())
        rt.cacheDir = dir;
    if (int mb = flags.getInt("cache-max-mb", 0); mb != 0)
        rt.cacheMaxMb = mb;
    if (std::string bin = flags.getStr("worker-bin", ""); !bin.empty())
        rt.workerBin = bin;
    rt.resolveIsolation();
    return rt;
}

/** --cache-stats: the store-counter line printed to stderr after the
 *  run, or "" without the flag or a store (estimator without one). */
inline std::string
cacheStatsLine(const Flags &flags, const ResultStore *store)
{
    if (!flags.has("cache-stats") || store == nullptr)
        return "";
    return "cache " +
           (store->enabled() ? store->dir() : std::string("(disabled)")) +
           ": " + store->statsSnapshot().toJson() + "\n";
}

inline void
maybePrintCacheStats(const Flags &flags, const ResultStore *store)
{
    std::fputs(cacheStatsLine(flags, store).c_str(), stderr);
}

/** Sweep robustness knobs shared by the bench harnesses. */
struct SweepOptions
{
    int maxRetries = 2;
    bool failFast = false;
    /** Permanent failures tolerated before finish() returns nonzero. */
    int maxFailures = 0;
    /** Journal file; empty disables checkpoint/resume. */
    std::string journalPath;
};

inline SweepOptions
sweepOptions(const Flags &flags)
{
    SweepOptions o;
    o.maxRetries = flags.getInt("max-retries", o.maxRetries);
    o.failFast = flags.has("fail-fast");
    o.maxFailures = flags.getInt("max-failures", o.maxFailures);
    o.journalPath = flags.getStr("journal", "");
    if (o.journalPath.empty())
        o.journalPath = RuntimeOptions::fromEnv().journalPath;
    if (o.journalPath == "none" || o.journalPath == "-")
        o.journalPath.clear();
    if (o.maxRetries < 0)
        throw ConfigError("--max-retries must be >= 0 (got " +
                          std::to_string(o.maxRetries) + ")");
    if (o.maxFailures < 0)
        throw ConfigError("--max-failures must be >= 0 (got " +
                          std::to_string(o.maxFailures) + ")");
    return o;
}

/**
 * The retry loop over a SweepLedger: point() replays a point the
 * ledger resumes, else runs `fn` up to 1 + --max-retries times and
 * hands the value to the ledger. Past the retries (without
 * --fail-fast) the point is a permanent failure and yields NaN
 * (floating-point T) or a value-initialized T, so the sweep completes.
 * Thread-safe: parallelSweep workers call point() concurrently.
 */
class SweepRunner
{
  public:
    SweepRunner(const Flags &flags, const char *bench,
                std::initializer_list<int64_t> knobs)
        : opt_(sweepOptions(flags)),
          ledger_(opt_.journalPath, sweepHash(bench, knobs))
    {
    }

    explicit SweepRunner(SweepOptions opt)
        : opt_(std::move(opt)), ledger_(opt_.journalPath, 0)
    {
    }

    template <typename T, typename Fn>
    T
    point(const std::string &key, Fn fn)
    {
        T v;
        if (ledger_.resume(key, v))
            return v;
        const int attempts = 1 + opt_.maxRetries;
        for (int a = 1;; ++a) {
            try {
                v = fn();
            } catch (const std::exception &e) {
                if (a < attempts) {
                    SAVE_WARN("sweep point '", key, "' attempt ", a,
                              "/", attempts, " failed: ", e.what(),
                              "; retrying");
                    continue;
                }
                if (opt_.failFast)
                    throw;
                ledger_.fail(key, e.what(), attempts);
                return failedValue<T>();
            }
            ledger_.record(key, v, a);
            return v;
        }
    }

    const SweepLedger &ledger() const { return ledger_; }

    /** The ledger's report on stderr; returns the exit code. */
    int finish() const { return ledger_.finish(opt_.maxFailures); }

  private:
    template <typename T>
    static T
    failedValue()
    {
        if constexpr (std::is_floating_point_v<T>)
            return std::numeric_limits<T>::quiet_NaN();
        else
            return T{};
    }

    SweepOptions opt_;
    SweepLedger ledger_;
};

/** Print the shared flag reference (stderr). */
inline void
printBenchUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--flag=value ...]\n"
        "  --grid=N         sparsity-grid stride (1 = paper's full "
        "sampling)\n"
        "  --ksteps=N       slice K length\n"
        "  --tiles=N        register tiles per slice\n"
        "  --cores=N        active cores per slice simulation\n"
        "  --seed=N         estimator workload seed (default 7)\n"
        "  --threads=N      host threads (0 = SAVE_THREADS env or "
        "hardware)\n"
        "  --cache-dir=D    persistent result store ('none' "
        "disables)\n"
        "  --cache-max-mb=N result-store size cap, LRU-evicted "
        "(0 = env)\n"
        "  --cache-stats    print store counters to stderr after the "
        "run\n"
        "  --max-retries=N  retries per failed sweep point (default "
        "2)\n"
        "  --fail-fast      abort on the first permanent failure\n"
        "  --max-failures=N tolerated failures before exit 1\n"
        "  --journal=PATH   crash-safe sweep journal ('none' "
        "disables;\n"
        "                   default: SAVE_JOURNAL env)\n"
        "  --trace-events=F write a Perfetto/Chrome pipeline event "
        "trace\n"
        "                   (same as SAVE_TRACE_EVENTS=F)\n"
        "  --isolation=M    slice execution: none | thread | process\n"
        "                   (default: SAVE_ISOLATION env, then "
        "thread)\n"
        "  --workers=N      worker processes (0 = match --threads)\n"
        "  --worker-timeout-ms=N  per-slice deadline before the "
        "worker\n"
        "                   is SIGKILLed (default 30000)\n"
        "  --max-worker-crashes=N  crash budget before degrading to\n"
        "                   in-process execution (default 8)\n"
        "  --worker-max-slices=N  recycle workers after N slices "
        "(0 = never)\n"
        "  --worker-rss-mb=N  per-worker RLIMIT_AS cap (0 = none)\n"
        "  --worker-bin=P   explicit save-worker binary path\n",
        argv0);
}

/**
 * Run a bench body with the shared error policy: --help prints
 * `usage` and exits 0; ConfigError prints the message plus `usage`
 * and exits 2 (usage error);
 * any other SimError (deadlock, cache corruption under --fail-fast)
 * prints what it knows — including the pipeline snapshot for
 * deadlocks — and exits 1. Returns the body's own exit code
 * otherwise.
 */
template <typename Fn>
int
benchMain(int argc, char **argv, Fn body,
          void (*usage)(const char *argv0) = printBenchUsage)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(argv[0]);
            return 0;
        }
        // --trace-events=PATH maps onto SAVE_TRACE_EVENTS so every
        // machine the bench builds auto-attaches a pipeline event
        // trace (see src/trace/event_trace.h).
        constexpr const char *kTraceEvents = "--trace-events=";
        if (std::strncmp(argv[i], kTraceEvents,
                         std::strlen(kTraceEvents)) == 0)
            setenv("SAVE_TRACE_EVENTS",
                   argv[i] + std::strlen(kTraceEvents), 1);
    }
    try {
        return body();
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n\n", e.what());
        usage(argc > 0 ? argv[0] : "bench");
        return 2;
    } catch (const DeadlockError &e) {
        std::fprintf(stderr, "error: %s\n%s", e.what(),
                     e.snapshot().c_str());
        return 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

/**
 * Evaluate fn(0..n-1) across the global thread pool and return the
 * results in index order. Each point must be independent (every
 * simulation here is seeded), so the output is identical to a serial
 * loop — only wall-clock changes.
 */
template <typename Fn>
auto
parallelSweep(int n, Fn fn) -> std::vector<decltype(fn(0))>
{
    std::vector<decltype(fn(0))> out(static_cast<size_t>(n));
    ThreadPool::global().parallelFor(
        n, [&](int64_t i) { out[static_cast<size_t>(i)] =
                                fn(static_cast<int>(i)); });
    return out;
}

/** Slice config for a one-off kernel sweep. */
inline GemmConfig
sliceFor(const KernelSpec &spec, Precision prec, double bs, double nbs,
         const Flags &flags, uint64_t seed = 7)
{
    GemmConfig g = spec.slice(prec, bs, nbs,
                              flags.getInt("ksteps", 192), seed);
    g.tiles = flags.getInt("tiles", 6);
    return g;
}

inline const char *
fmtPct(double s)
{
    static char buf[16];
    std::snprintf(buf, sizeof(buf), "%.0f%%", 100 * s);
    return buf;
}

} // namespace save

#endif // SAVE_BENCH_BENCH_UTIL_H
