/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * Every recovery path in the harness (slice retry, cache-corruption
 * quarantine, watchdog snapshot-and-raise) is dead code unless
 * something actually fails, so this facility makes failures happen on
 * demand, reproducibly:
 *
 *  - Slice faults: a seeded hash selects a fraction of slice keys;
 *    the first `times` simulation attempts of a selected slice throw
 *    TraceError. The selection depends only on (seed, key), never on
 *    scheduling, so a run with injection and max-retries >= times
 *    produces output bit-identical to a fault-free run.
 *  - Cache tampering: truncate a result-store shard or flip one bit
 *    in it (when the store opens it, or after an append), exercising
 *    the corrupt-shard quarantine on the next load.
 *  - Watchdog on demand: force a core's retirement watchdog to fire
 *    at a chosen cycle, exercising the snapshot/DeadlockError path
 *    without constructing a real deadlock.
 *
 * Configuration: programmatic via configure(), or the
 * SAVE_FAULT_INJECT environment variable, a comma-separated key=value
 * list:
 *
 *   SAVE_FAULT_INJECT="slice=0.1,times=1,seed=42"
 *   SAVE_FAULT_INJECT="cache-truncate=1"
 *   SAVE_FAULT_INJECT="watchdog-core=0,watchdog-after=5000"
 *   SAVE_FAULT_INJECT="crash=0.2,hang=0.1,times=1"
 *
 * Keys: slice (probability 0-1), times (failures per selected slice),
 * seed, cache-truncate (probability per save), cache-bitflip
 * (probability per save), watchdog-core (core id, -1 off),
 * watchdog-after (cycle at which the forced watchdog fires).
 *
 * Process-level faults (crash = raise SIGSEGV, abort = std::abort,
 * hang = sleep forever so the parent's deadline fires, oom = a forced
 * std::bad_alloc) exist to test the out-of-process containment layer
 * (src/proc): a slice worker applies them via maybeCrashSlice before
 * simulating. Selection is the same seeded per-slice-key draw as
 * `slice`, but the attempt budget is stateless — the caller passes
 * the attempt number, because the failed-attempt count cannot live in
 * a process that just died. A selected slice misbehaves on attempts
 * 1..times and runs clean from attempt times+1, so an injected run
 * with retries >= times finishes bit-identical to a fault-free run.
 * In-process execution (--isolation=none|thread) refuses these modes
 * with ConfigError — a raised SIGSEGV in-process is not containable.
 */

#ifndef SAVE_UTIL_FAULT_INJECTION_H
#define SAVE_UTIL_FAULT_INJECTION_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace save {

/** What to break, how often, and how hard. All off by default. */
struct FaultPlan
{
    uint64_t seed = 1;
    /** Fraction of slice keys whose simulation throws. */
    double sliceProb = 0.0;
    /** How many attempts of a selected slice fail before succeeding
     *  (1 = fail once, succeed on first retry). */
    int sliceTimes = 1;
    /** Probability that a result-store write leaves a truncated shard. */
    double cacheTruncateProb = 0.0;
    /** Probability that a result-store write leaves a bit-flipped shard. */
    double cacheBitflipProb = 0.0;
    /** Core whose watchdog is force-fired (-1 = none). */
    int watchdogCore = -1;
    /** Cycle at which the forced watchdog fires. */
    uint64_t watchdogAfterCycles = 1000;

    /** Process-level faults, applied by slice workers (src/proc) via
     *  maybeCrashSlice. Each is a per-slice-key probability; a
     *  selected slice misbehaves on attempts 1..sliceTimes. */
    double crashProb = 0.0; ///< raise(SIGSEGV)
    double abortProb = 0.0; ///< std::abort()
    double hangProb = 0.0;  ///< sleep until the parent's deadline kill
    double oomProb = 0.0;   ///< throw std::bad_alloc

    /** True when any process-level (worker-only) mode is armed. */
    bool
    anyProcessFaults() const
    {
        return crashProb > 0 || abortProb > 0 || hangProb > 0 ||
               oomProb > 0;
    }

    bool
    any() const
    {
        return sliceProb > 0 || cacheTruncateProb > 0 ||
               cacheBitflipProb > 0 || watchdogCore >= 0 ||
               anyProcessFaults();
    }
};

/** Process-wide fault injector. Thread-safe. */
class FaultInjector
{
  public:
    /** The global instance, initialized once from SAVE_FAULT_INJECT
     *  (malformed specs warn and leave injection off). */
    static FaultInjector &global();

    /** Install a plan and clear per-slice attempt state. */
    void configure(const FaultPlan &plan);

    /** Disable all injection (tests call this in teardown). */
    void reset() { configure(FaultPlan{}); }

    bool enabled() const { return enabled_; }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Throws TraceError iff `key` is selected by (seed, sliceProb)
     * and fewer than sliceTimes attempts for it have already failed.
     * Call once per simulation attempt with a stable per-slice hash.
     */
    void maybeFailSlice(uint64_t key);

    /**
     * Apply any armed process-level fault for `key` on this `attempt`
     * (1-based): raise SIGSEGV, abort, hang, or throw std::bad_alloc.
     * Called by slice worker processes (bench/save_worker.cc) only —
     * never from code that must survive. Stateless on purpose: a
     * selected slice misbehaves iff attempt <= sliceTimes, so the
     * decision survives the death of the process making it.
     */
    void maybeCrashSlice(uint64_t key, int attempt);

    /** Cycle at which core `core` must force-fire its watchdog
     *  (~0ull = never). Cores cache this at construction. */
    uint64_t watchdogFireCycle(int core) const;

    /** Deterministically truncate or bit-flip the file at `path`
     *  (result-store and trace-file hook); `key` salts the decision so
     *  successive writes differ. */
    void maybeTamperCacheFile(const std::string &path, uint64_t key);

    /** Parse a SAVE_FAULT_INJECT spec. Throws ConfigError on
     *  malformed input. */
    static FaultPlan parsePlan(const std::string &spec);

  private:
    /** Deterministic uniform draw in [0,1) from (seed, site, key). */
    double draw(uint64_t site, uint64_t key) const;

    bool enabled_ = false;
    FaultPlan plan_;
    std::mutex mu_;
    /** Failed-attempt counts per selected slice key. */
    std::unordered_map<uint64_t, int> slice_attempts_;
};

} // namespace save

#endif // SAVE_UTIL_FAULT_INJECTION_H
