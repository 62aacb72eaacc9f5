/**
 * @file
 * SimSession: the reentrant library facade over the simulation engine
 * and the whole-network estimator (DESIGN.md §14).
 *
 * A session owns everything one independent simulation context needs
 * — machine/feature configs, a RuntimeOptions snapshot, a thread-pool
 * handle, and a ResultStore handle — and touches no mutable process
 * globals: every environment knob is read exactly once, into the
 * RuntimeOptions snapshot captured at session creation (or injected
 * by the caller). That makes N sessions in one process safe to drive
 * concurrently with different settings, which is exactly what the
 * save-serve daemon does: one session per serve worker, all sharing
 * one ThreadPool and one content-addressed store.
 *
 * Results are bit-identical to the standalone benches by
 * construction:
 *  - runGemm memoizes through runGemmCached (cache/result_store.h),
 *    as the Engine-driven benches do, so a repeat slice — served or
 *    benched — is answered from the shared store without
 *    re-simulating;
 *  - runFig14 renders through the shared dnn/fig14_report.h renderer
 *    over TrainingEstimator, so a served sweep's text matches
 *    `bench_fig14` stdout to the byte.
 */

#ifndef SAVE_SERVE_SESSION_H
#define SAVE_SERVE_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/fig14_report.h"
#include "engine/engine.h"
#include "util/runtime_options.h"
#include "util/thread_pool.h"

namespace save {

/** Fig. 14 sweep knobs a session caller can vary per request.
 *  Defaults match bench_fig14 (grid=3 quick sampling). Trivially
 *  copyable: travels as raw bytes in the serve protocol. */
struct Fig14Knobs
{
    int32_t gridStep = 3;
    int32_t kSteps = 192;
    int32_t tiles = 6;
    int32_t cores = 1;
    uint64_t seed = 7;
    /** Fan-out threads; 0 = the session's shared pool. */
    int32_t threads = 0;
    /** Isolation override: 0 = session default ("" in RuntimeOptions
     *  terms), 1 = none, 2 = thread, 3 = process. An enum-as-int so
     *  the struct stays trivially copyable. */
    int32_t isolation = 0;
};

/** Fig14Knobs::isolation codes <-> resolveIsolation strings. */
std::string fig14IsolationName(int32_t code);
int32_t fig14IsolationCode(const std::string &name);

class SimSession
{
  public:
    struct Options
    {
        MachineConfig mcfg{};
        SaveConfig scfg{};
        /** Environment snapshot; callers override fields explicitly.
         *  The session never consults getenv after construction. */
        RuntimeOptions runtime{};
        /** Borrowed handles (must outlive the session); null = the
         *  session creates its own from `runtime`. */
        ThreadPool *sharedPool = nullptr;
        ResultStore *sharedStore = nullptr;
    };

    explicit SimSession(Options opt);
    ~SimSession();

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    const MachineConfig &machine() const { return opt_.mcfg; }
    const SaveConfig &save() const { return opt_.scfg; }
    const RuntimeOptions &runtime() const { return opt_.runtime; }

    /**
     * One GEMM slice simulation, memoized in the content-addressed
     * store by runGemmCached, the function the benches use: a slice
     * the benches (or a previous request) already ran is answered from
     * the store without re-simulating, and a slice another process
     * is simulating is waited for (ResultStore::getOrCompute).
     */
    KernelResult runGemm(const GemmConfig &g, int cores, int vpus);

    /**
     * The full Fig. 14 sweep; returns the report text (byte-identical
     * to bench_fig14 stdout for the same knobs). Every point's slices
     * are queued at once (TrainingEstimator::prefetch); `progress`
     * fires after each of the 16 network evaluations and may throw to
     * abort the sweep, which drops the slices nobody started and
     * returns once none is running. Estimators are cached per knob
     * tuple, so repeat sweeps reuse warm in-memory surfaces on top of
     * the persistent store.
     */
    std::string runFig14(const Fig14Knobs &knobs,
                         const Fig14Progress &progress = nullptr);

    /**
     * One Fig. 14 sweep point by canonical index (fig14Points()
     * order) — the shard-job unit of work. Identical arithmetic to
     * the same point inside runFig14: same estimator cache, same
     * store, so a shard-computed point is bit-identical to the
     * single-host bench's. Throws ConfigError on a bad index.
     */
    NetResult runFig14Point(const Fig14Knobs &knobs, int index);

    /** Slice simulations actually executed across all estimators this
     *  session created (store misses). */
    uint64_t simulations() const;

    /** Permanently failed slice points across all estimators. */
    uint64_t sliceFailures() const;

    /** The session's store (shared or owned; never null). */
    const ResultStore *resultStore() const { return store_; }

  private:
    TrainingEstimator &estimatorFor(const Fig14Knobs &k);

    Options opt_;

    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool *pool_ = nullptr;

    std::unique_ptr<ResultStore> owned_store_;
    ResultStore *store_ = nullptr;

    /** Estimators keyed by the sweep-knob tuple; guarded by mu_. */
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<TrainingEstimator>> estimators_;
};

} // namespace save

#endif // SAVE_SERVE_SESSION_H
