/**
 * @file
 * Whole-network inference/training time estimation — the paper's
 * sampling methodology (SecVI):
 *
 *  1. For every kernel (layer x phase), simulate a steady-state slice
 *     at sparsities on a 10% grid -> a 2D time surface.
 *  2. Map the profiled per-epoch weight/activation sparsities onto
 *     the surface by (bi)linear interpolation.
 *  3. Sum layers per epoch; average epochs for the mean training
 *     time; use final-epoch sparsity for inference.
 *
 * Surfaces are cached by micro-kernel shape: layers sharing a shape
 * share a slice surface and differ only by their MAC-count scale
 * (DESIGN.md substitution 5).
 *
 * One walk plans each evaluation: its distinct surface points in
 * first-request order, plus one record per kernel per epoch. The points
 * are hundreds of *independent*, seeded slice simulations, so the
 * estimator claims every plan's points up front — for one network or a
 * whole sweep — as batches that the host thread pool and every waiting
 * caller drain; each evaluation then reads each point once and replays
 * its records serially, epoch by epoch, so results are bit-identical
 * for any thread count. With a cache directory configured
 * (SAVE_CACHE_DIR or EstimatorOptions::cacheDir) surfaces persist
 * across process runs. See DESIGN.md, "Parallel estimator".
 *
 * Operating points (Fig. 14): the baseline machine (2 VPUs, 1.7GHz),
 * SAVE with 2 VPUs, SAVE with 1 VPU at 2.1GHz (SecIV-D), `static`
 * (best fixed VPU count per epoch), and `dynamic` (best per kernel).
 */

#ifndef SAVE_DNN_ESTIMATOR_H
#define SAVE_DNN_ESTIMATOR_H

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_store.h"
#include "dnn/networks.h"
#include "dnn/slice_batch.h"
#include "engine/engine.h"
#include "proc/worker_pool.h"
#include "util/thread_pool.h"

namespace save {

/**
 * Resolve the slice-execution isolation mode: `opt` if non-empty, else
 * the SAVE_ISOLATION environment variable, else "thread". Accepted
 * values: "none" (strictly serial, in-process), "thread" (in-process
 * thread-pool fan-out, the default), "process" (sandboxed worker
 * subprocesses, src/proc). Throws ConfigError on anything else.
 */
std::string resolveIsolation(const std::string &opt);

/** Estimator tuning knobs. */
struct EstimatorOptions
{
    /** Slice length (K steps) and register-tile repetitions. Longer
     *  slices amortize prologue/drain and approach the steady-state
     *  cap; 192x6 reproduces the paper's speedup caps well. */
    int kSteps = 192;
    int tiles = 6;
    /** Active cores in each slice simulation (share of the machine). */
    int cores = 1;
    /** Sample every gridStep-th 10% bin (3 -> 0/30/60/90%); times in
     *  between are linearly interpolated. 1 reproduces the paper. */
    int gridStep = 1;
    uint64_t seed = 7;
    /** Host threads for the slice-simulation fan-out: 0 shares the
     *  process-global pool (SAVE_THREADS or hardware concurrency),
     *  1 runs strictly serially, N >= 2 uses a dedicated N-thread
     *  pool. Results are identical for every setting. */
    int threads = 0;
    /** Persistent result-store directory. Empty defers to the
     *  SAVE_CACHE_DIR environment variable; "none" disables
     *  persistence even when the variable is set. */
    std::string cacheDir;
    /** Result-store size cap in MB; eviction compacts the least-
     *  recently-used records past it. 0 defers to SAVE_CACHE_MAX_MB
     *  (unlimited when that is unset too). */
    int cacheMaxMb = 0;
    /** Extra attempts after a slice simulation throws. Each retry
     *  rebuilds the Engine from scratch, so a transient fault (e.g.
     *  injected via SAVE_FAULT_INJECT) cannot poison later attempts. */
    int maxRetries = 2;
    /** Rethrow the first slice failure instead of recording it and
     *  continuing with the rest of the sweep. */
    bool failFast = false;
    /** Slice-execution isolation: ""/"none"/"thread"/"process"; empty
     *  defers to SAVE_ISOLATION, then "thread". Results are
     *  bit-identical across all modes. See resolveIsolation(). */
    std::string isolation;
    /** Worker-pool knobs; only consulted when isolation resolves to
     *  "process". proc.workers == 0 matches the thread count. */
    ProcOptions proc;

    /** Throws ConfigError on out-of-range knobs; the estimator ctor
     *  calls this. */
    void validate() const;
};

/** One permanently failed surface point (all retries exhausted). */
struct SliceFailure
{
    /** Human-readable point id, e.g. "slice mr=4 nr=6 ... wBin=3". */
    std::string point;
    /** what() of the final attempt's exception. */
    std::string reason;
    /** Attempts made (1 + retries). */
    int attempts = 0;
};

/** Per-phase time breakdown (ns), Fig. 14 bar segments. */
struct PhaseBreakdown
{
    double firstLayer = 0;
    double forward = 0;
    double bwdInput = 0;
    double bwdWeights = 0;

    double
    total() const
    {
        return firstLayer + forward + bwdInput + bwdWeights;
    }

    PhaseBreakdown &operator+=(const PhaseBreakdown &o);
    PhaseBreakdown &operator*=(double f);
};

/** Times for all Fig. 14 operating points. */
struct NetResult
{
    PhaseBreakdown baseline2;
    PhaseBreakdown save2;
    PhaseBreakdown save1;
    PhaseBreakdown saveStatic;
    PhaseBreakdown saveDynamic;
};

/**
 * sweepResultPoisoned: true when a sweep-point result carries the NaN
 * marker of a permanently failed slice. The sweep ledger
 * (util/journal.h) consults this, so a poisoned point counts as a
 * permanent failure, is never journaled, and a resumed run
 * re-attempts it instead of replaying the failure forever.
 */
inline bool
sweepResultPoisoned(const PhaseBreakdown &b)
{
    return std::isnan(b.firstLayer) || std::isnan(b.forward) ||
           std::isnan(b.bwdInput) || std::isnan(b.bwdWeights);
}

inline bool
sweepResultPoisoned(const NetResult &r)
{
    return sweepResultPoisoned(r.baseline2) ||
           sweepResultPoisoned(r.save2) ||
           sweepResultPoisoned(r.save1) ||
           sweepResultPoisoned(r.saveStatic) ||
           sweepResultPoisoned(r.saveDynamic);
}

/** One whole-network evaluation: what inference() (inferenceOnly) or
 *  training() of `net` computes. `net` is borrowed and must outlive
 *  the evaluateEach() call. */
struct NetEvaluation
{
    const NetworkModel *net;
    Precision precision;
    bool inferenceOnly;
};

/** Surface-cached whole-network estimator. Thread-safe: concurrent
 *  kernelTime/inference/training calls share the single-flight surface
 *  cache. */
class TrainingEstimator
{
  public:
    TrainingEstimator(MachineConfig mcfg, SaveConfig save_features,
                      EstimatorOptions opt);

    /**
     * Reentrant-facade constructor: fan out over `shared_pool` and
     * consult `shared_store` instead of creating private ones. Either
     * may be null (falling back to the EstimatorOptions behavior).
     * Both handles must outlive the estimator; neither is owned. This
     * is how SimSession (src/serve) gives every daemon worker session
     * its own estimator while sharing one pool and one CAS store.
     */
    TrainingEstimator(MachineConfig mcfg, SaveConfig save_features,
                      EstimatorOptions opt, ThreadPool *shared_pool,
                      ResultStore *shared_store);

    ~TrainingEstimator();

    /** Forward pass at end-of-training sparsity (a one-element walk,
     *  as evaluateEach). */
    NetResult inference(const NetworkModel &net, Precision precision);

    /** Mean per-epoch time across the whole training run (ditto). */
    NetResult training(const NetworkModel &net, Precision precision);

    /**
     * The one point-list walk: queue every evaluation's slices at once
     * (prefetch), then evaluate the list in order and hand each result
     * and its list position to `onResult` while later evaluations'
     * slices still simulate. A throw from an evaluation (failFast) or
     * from `onResult` cancels the rest: unstarted slices are dropped,
     * and the call rethrows once no thread still runs one.
     */
    void evaluateEach(
        const std::vector<NetEvaluation> &evals,
        const std::function<void(size_t, const NetResult &)> &onResult);

    /**
     * Time of one kernel at given sparsities (ns, full layer): a
     * one-kernel plan that resolves only the asked configuration's
     * keys. (save_on, vpus) must be a modelled one: baseline with 2
     * VPUs or SAVE with 2 or 1; any other throws ConfigError.
     */
    double kernelTime(const KernelSpec &spec, Precision precision,
                      double bs, double nbs, bool save_on, int vpus);

    /** Slice simulations performed so far (persistent-store misses
     *  actually executed by this process). */
    uint64_t simulations() const
    {
        return sims_.load(std::memory_order_relaxed);
    }

    /** Surface points served from the persistent result store. */
    uint64_t persistentHits() const
    {
        return store_ ? store_->hits() : 0;
    }

    /** The persistent result store (disabled instance when no cache
     *  directory is configured). For counters/diagnostics. */
    const ResultStore *resultStore() const { return store_; }

    /** Worker threads the fan-out uses (1 = serial path). */
    int threads() const;

    /** Surface points that exhausted their retries. Their times are
     *  quiet NaN, which propagates through interpolation so callers
     *  can detect a poisoned result with std::isnan. */
    std::vector<SliceFailure> failures() const;

    /** Multi-line report of all failures; empty string when clean.
     *  Includes the worker-pool status once any worker crashed. */
    std::string failureReport() const;

    /** Resolved isolation mode: "none", "thread", or "process". */
    const std::string &isolation() const { return isolation_; }

    /** The worker pool; null unless isolation() == "process". */
    WorkerPool *processPool() { return proc_pool_.get(); }

    /**
     * One slice simulation with explicit inputs — the shared core of
     * in-process execution and the save-worker binary, so out-of-
     * process results are bit-identical by construction. `seed` is
     * EstimatorOptions::seed (the per-point offset is derived from the
     * key's sparsity bins internally).
     */
    static KernelResult simulateSliceKernel(const MachineConfig &mcfg,
                                            const SaveConfig &save_on_cfg,
                                            const SliceKey &key,
                                            int tiles, int cores,
                                            uint64_t seed);

  private:
    /** Surface-point cache key (shape + sparsity bins); shared with
     *  the SoA prefetch batching in dnn/slice_batch.h. */
    using Key = SliceKey;

    /** The queue behind a Prefetch (defined in estimator.cc). */
    struct FanOut;

    /** A started slice fan-out. Destroying it cancels what is left:
     *  unstarted batches are dropped (their keys leave the in-memory
     *  cache, so a concurrent waiter re-claims them), and it returns
     *  once no thread still runs a batch of it. */
    class Prefetch
    {
      public:
        Prefetch() = default;
        Prefetch(Prefetch &&) noexcept = default;
        Prefetch &operator=(Prefetch &&) = delete;
        Prefetch(const Prefetch &) = delete;
        ~Prefetch() { cancel(); }

      private:
        friend class TrainingEstimator;
        /** Drop unstarted batches and wait out running ones. */
        void cancel();

        std::shared_ptr<FanOut> fan_;
    };

    /** Claim every plan key no one claimed yet, in first-request
     *  order, batch the claims by micro-kernel shape and queue the
     *  batches for the pool, plus any sliceTime() waiter, to drain.
     *  Returns without waiting. */
    [[nodiscard]] Prefetch
    prefetch(const std::vector<NetEvaluation> &evals);

    /** One evaluation, planned one epoch at a time: one sliceTime()
     *  per new plan key (simulating inline a point no prefetch queued,
     *  helping drain the queued ones), then a lock-free replay of the
     *  epoch's records. */
    NetResult evaluate(const NetEvaluation &ev);

    /** Run one slice simulation (pure: no estimator state touched;
     *  the worker builds its own short-lived Engine). */
    KernelResult simulateSlice(const Key &key) const;

    /** CAS identity of a surface point (config digest + workload). */
    CasKey casKey(const Key &key) const;

    /** Stable hash of a surface point (fault-injection site id and
     *  failure-report label share it). */
    uint64_t keyHash(const Key &key) const;
    std::string keyLabel(const Key &key) const;

    /** simulateSlice with the retry/fault-isolation policy applied.
     *  Returns a NaN-timed result after maxRetries + 1 failed attempts
     *  (recording a SliceFailure) unless failFast, which rethrows. */
    KernelResult simulateWithRetry(const Key &key);

    /** One attempt of one slice under the resolved isolation mode:
     *  dispatches to the worker pool or runs simulateSlice directly.
     *  A worker failure falls back in-process once the pool degrades,
     *  and on the slice's last attempt (`attempt` > maxRetries) when
     *  workersHealthy() says workers die whatever they run. */
    KernelResult runSliceIsolated(const Key &key, int attempt);

    /** Run a fixed control slice in a worker: false iff that worker
     *  died too (or the pool refused it), i.e. the deaths were the
     *  workers', not the slice's. */
    bool workersHealthy();

    /**
     * Produce one point through the store's cross-process
     * single-flight (ResultStore::getOrCompute): a stored value is
     * returned as is; otherwise the point is simulated with the retry
     * policy and a finite result persisted. Returns the slice time
     * (NaN = permanently failed).
     */
    double computeCold(const Key &key);

    /** Simulated slice time in ns at binned sparsities; single-flight
     *  cached so concurrent callers never duplicate a simulation. */
    double sliceTime(const Key &key);

    MachineConfig mcfg_;
    SaveConfig save_cfg_;
    EstimatorOptions opt_;

    std::string isolation_;

    /** Owned pool for threads >= 2; null for serial or global-pool
     *  mode (see EstimatorOptions::threads). */
    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool *pool_ = nullptr;

    /** Sandboxed slice workers; non-null iff isolation_ == "process". */
    std::unique_ptr<WorkerPool> proc_pool_;

    /** One claimed surface point: its value, and the fan-out whose
     *  queue holds it (expired once that fan-out is gone, empty for a
     *  point claimed by sliceTime itself). */
    struct Claim
    {
        std::shared_future<double> value;
        std::weak_ptr<FanOut> fan;
    };

    /** Single-flight surface cache: the first thread to want a key
     *  simulates (or queues) it, everyone else waits on the shared
     *  future. */
    std::mutex cache_mu_;
    std::map<Key, Claim> cache_;
    std::atomic<uint64_t> sims_{0};

    /** Persistent content-addressed store: owned_store_ is populated
     *  unless a shared store was injected; store_ always points at the
     *  live instance (disabled instance when no directory resolves). */
    std::unique_ptr<ResultStore> owned_store_;
    ResultStore *store_ = nullptr;
    uint64_t config_hash_ = 0;

    mutable std::mutex failures_mu_;
    std::vector<SliceFailure> failures_;
};

} // namespace save

#endif // SAVE_DNN_ESTIMATOR_H
