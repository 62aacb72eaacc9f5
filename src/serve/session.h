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
 *  - every Fig. 14 entry point (runFig14, runFig14Point, the daemon's
 *    sweep requests, the shard coordinator's lanes) is one
 *    runFig14Points call over the same estimator pipeline, and the
 *    report is rendered by the shared dnn/fig14_report.h renderer,
 *    so a served or sharded sweep matches `bench_fig14` stdout to the
 *    byte.
 */

#ifndef SAVE_SERVE_SESSION_H
#define SAVE_SERVE_SESSION_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

    /** Receives one evaluated point: its fig14Points() index and
     *  result. */
    using Fig14PointFn =
        std::function<void(uint32_t index, const NetResult &result)>;

    /**
     * The one Fig. 14 point runner. Queues the slices of every listed
     * point (indices into fig14Points()) with one
     * TrainingEstimator::prefetch, then evaluates the points in list
     * order and hands each result to `onPoint`, while later points'
     * slices are still simulating. A throw from `onPoint` cancels the
     * rest: slices nobody started are dropped and the call returns (by
     * rethrowing) once none is running. Throws ConfigError, before any
     * work, on an empty list or an out-of-range index. Estimators are
     * cached per knob tuple, so repeat calls reuse warm in-memory
     * surfaces on top of the persistent store, and a point's result is
     * the same whichever list it is evaluated in.
     */
    void runFig14Points(const Fig14Knobs &knobs,
                        const std::vector<uint32_t> &indices,
                        const Fig14PointFn &onPoint);

    /** The full Fig. 14 sweep (all points, one runFig14Points call);
     *  returns the report text, byte-identical to bench_fig14 stdout
     *  for the same knobs. */
    std::string runFig14(const Fig14Knobs &knobs);

    /** One point by canonical index: runFig14Points over one index. */
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
