/**
 * @file
 * ShardCoordinator: distributed Fig. 14 sweeps over a mixed backend
 * set (DESIGN.md §15).
 *
 * The coordinator carves the canonical fig14Points() enumeration into
 * point jobs and dispatches them across every backend it is given:
 *
 *  - in-process lanes: N threads over ONE shared SimSession (shared
 *    ThreadPool + content-addressed ResultStore), each claiming one
 *    point at a time and running it through SimSession::runFig14Points;
 *  - remote save-serve daemons: one dialer thread per socket,
 *    claiming up to `batch` points and sending them as one Fig14
 *    sweep request (knobs + point list); the daemon's per-point SPRG
 *    acks complete points as they land.
 *
 * Correctness invariant — the merged report is byte-identical to
 * `bench_fig14` stdout for any shard count, backend mix, and fault
 * schedule — holds by construction, not by care:
 *
 *  - every backend computes a point with the same arithmetic (the
 *    same estimator pipeline behind SimSession::runFig14Points, seeded
 *    workloads, -ffp-contract=off everywhere), so WHO computes a
 *    point cannot change its value;
 *  - the report is rendered by the one shared dnn/fig14_report.h
 *    renderer from the index-addressed results, in config-key order
 *    — arrival order never touches the output.
 *
 * Fault policy (the PR-7 triage taxonomy, applied at batch
 * granularity):
 *  - ConfigError (local or a remote Config-kind SERR) is fatal: the
 *    sweep itself is misconfigured, every backend would fail alike;
 *  - a load-shed (Busy) reply or a refused connection (the batch
 *    never reached a daemon) hands the points back without charging
 *    an attempt;
 *  - any other failure charges each unfinished point one attempt and
 *    re-queues it, unless another dispatch still holds it (then it
 *    stays in flight there); with a bounded per-point fault budget
 *    (`maxAttempts`), past which a point no one holds is a permanent
 *    failure in the sweep ledger and yields a value-initialized
 *    result, so the rest of the sweep still completes;
 *  - a daemon that fails `kMaxBackendFaults` consecutive dispatches
 *    (faults, Busy replies and refused connections all count), or
 *    whose status probe reports a protocol version other than
 *    kServeVersion, is excluded with a warning:
 *    graceful degradation to the remaining backends;
 *  - a straggler (a dispatched point older than `stragglerMs`) is
 *    speculatively re-dispatched to any idle backend, charging no
 *    attempt; the first completion wins and the duplicate is
 *    discarded (results are bit-identical, so the race is benign).
 *
 * Journal, resume and pass/fail go through a SweepLedger under
 * fig14SweepHash, as in bench_fig14: a coordinator killed mid-sweep
 * resumes recomputing nothing already merged, the two journals
 * interchange, and a NaN-poisoned point is a permanent failure.
 */

#ifndef SAVE_SHARD_COORDINATOR_H
#define SAVE_SHARD_COORDINATOR_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_store.h"
#include "serve/session.h"
#include "util/journal.h"
#include "util/runtime_options.h"
#include "util/thread_pool.h"

namespace save {

class ShardCoordinator
{
  public:
    /** Consecutive failed dispatches before a daemon is excluded. */
    static constexpr int kMaxBackendFaults = 3;

    struct Options
    {
        /** Remote save-serve sockets (may be empty). */
        std::vector<std::string> sockets;
        /** In-process lanes over one shared SimSession; with 0 the
         *  run depends entirely on the daemons. */
        int inprocLanes = 1;
        /** Max points per daemon dispatch (one sweep request). */
        int batch = 4;
        /** Per-point fault budget before a permanent failure. */
        int maxAttempts = 3;
        /** Speculatively re-dispatch a point in flight longer than
         *  this; 0 disables straggler rebalance. */
        int stragglerMs = 0;
        /** Per-frame RPC read deadline (resets at each ack). */
        int rpcTimeoutMs = 120000;
        /** Sweep journal; empty disables checkpoint/resume. */
        std::string journalPath;

        Fig14Knobs knobs{};
        MachineConfig mcfg{};
        SaveConfig scfg{};
        /** Environment snapshot (threads, cache dir, worker bin). */
        RuntimeOptions runtime{};
    };

    /** The last run()'s dispatch counters plus the ledger's failures
     *  (its resumed/computed counts are on ledger()). */
    struct Stats
    {
        size_t dispatches = 0; ///< batches shipped (all backends)
        size_t requeues = 0;   ///< points re-queued after a fault
        size_t speculative = 0; ///< straggler re-dispatches
        size_t backendsExcluded = 0;
        std::vector<SweepFailure> failures;
    };

    explicit ShardCoordinator(Options opt);
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    /**
     * Run the sweep to completion and return the merged report —
     * byte-identical to `bench_fig14` stdout for the same knobs.
     * Throws ConfigError for a misconfigured sweep, SimError when
     * every backend is lost with points outstanding.
     */
    std::string run();

    Stats stats() const;

    /** The sweep ledger: save-shard's finish() (report + exit code). */
    const SweepLedger &ledger() const { return ledger_; }

    /** The in-process store (for --cache-stats); null when the run
     *  has no in-process lanes. */
    const ResultStore *resultStore() const;

  private:
    enum class PointPhase : uint8_t
    {
        Pending,
        InFlight,
        Done,
    };

    struct Point
    {
        PointPhase phase = PointPhase::Pending;
        int attempts = 0; ///< faulted dispatches
        int holders = 0;  ///< dispatches in flight, speculative too
        uint64_t dispatchNs = 0;
        NetResult result{};
    };

    /** Claim up to `max` points (pending first, then stragglers).
     *  Blocks until something is claimable, every point is done, or
     *  the run turned fatal; an empty result means "stop". */
    std::vector<uint32_t> claim(int max);
    void complete(uint32_t idx, const NetResult &r);
    /** A dispatch of `idx` faulted: charge one attempt. A point no
     *  other dispatch holds re-queues, or past the budget is finished
     *  as a permanent failure. */
    void requeueFailure(uint32_t idx, const std::string &reason);
    /** A dispatch handed `idx` back unworked: no charge. */
    void requeue(uint32_t idx);
    void setFatal(const std::string &msg);
    /** A backend is gone; with none left and work outstanding the
     *  run turns fatal instead of hanging. */
    void backendLost(const std::string &who, const std::string &why);

    void inprocLane(int lane);
    void daemonLane(const std::string &socket);

    /** `opt`, or ConfigError on an out-of-range field. */
    static Options validated(Options opt);

    Options opt_;
    SweepLedger ledger_;

    /** One shared session for every in-process lane (it is reentrant
     *  and owns the pool + store); null when inprocLanes == 0. */
    std::unique_ptr<SimSession> session_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Point> points_;
    size_t remaining_ = 0;
    int activeBackends_ = 0;
    bool fatal_ = false;
    bool fatalIsConfig_ = false;
    std::string fatalMsg_;

    Stats stats_; ///< dispatch counters (failures live in ledger_)
};

/** Parse a comma-separated socket list ("a.sock,b.sock"). */
std::vector<std::string> shardParseSockets(const std::string &list);

} // namespace save

#endif // SAVE_SHARD_COORDINATOR_H
