/**
 * @file
 * Machine and SAVE-policy configuration.
 *
 * Defaults model the paper's Table I: a 28-core Skylake-like Xeon 8180
 * with a 5-wide Sunny-Cove-style allocation stage, 97-entry RS,
 * 224-entry ROB, and either 2 VPUs at 1.7 GHz or 1 VPU at 2.1 GHz.
 * Core frequency scales the core, L1 and L2; L3, NoC and DRAM live in
 * a fixed uncore clock domain (paper SecVI).
 */

#ifndef SAVE_SIM_CONFIG_H
#define SAVE_SIM_CONFIG_H

#include <cstdint>

namespace save {

/** Lane-combination policy for the vector scheduler. */
enum class SchedPolicy : uint8_t {
    /** Conventional scheduler; every VFMA costs one full VPU op. */
    Baseline,
    /** Vertical coalescing (paper SecIII, Algorithm 1). */
    VC,
    /** Rotate-vertical coalescing (paper SecIV-B). */
    RVC,
    /** Horizontal compression reference design (impractical; SecIII). */
    HC,
};

/** Broadcast-cache design (paper SecIV-A). */
enum class BcastCacheKind : uint8_t { None, Mask, Data };

/** SAVE feature knobs. */
struct SaveConfig
{
    /** Master switch; false gives the unmodified baseline pipeline. */
    bool enabled = true;
    SchedPolicy policy = SchedPolicy::RVC;
    /** Lane-wise dependence tracking (paper SecIV-C). */
    bool laneWiseDep = true;
    /** Skip fully-ineffectual VFMAs (broadcasted sparsity). */
    bool bsSkip = true;
    BcastCacheKind bcache = BcastCacheKind::Data;
    /** Mixed-precision multiplicand-lane compression (paper SecV). */
    bool mpCompress = true;
    /** Extra VFMA latency charged to the HC reference design. */
    int hcExtraLatency = 6;
    /** Number of rotational states for RVC. */
    int rotationStates = 3;

    /**
     * Check every field for sanity; throws ConfigError naming the
     * offending field, its value, and the accepted range. Call before
     * building machines from user-supplied configuration.
     */
    void validate() const;

    /** A fully-disabled configuration (the paper's baseline). */
    static SaveConfig
    baseline()
    {
        SaveConfig c;
        c.enabled = false;
        c.policy = SchedPolicy::Baseline;
        c.laneWiseDep = false;
        c.bsSkip = false;
        c.bcache = BcastCacheKind::None;
        c.mpCompress = false;
        return c;
    }
};

/** Machine parameters (paper Table I). */
struct MachineConfig
{
    int cores = 28;

    /** Core clock with two active VPUs (AVX-512 license). */
    double freq2VpuGhz = 1.7;
    /** Boosted core clock when one VPU is disabled (paper SecIV-D). */
    double freq1VpuGhz = 2.1;
    /** Uncore (L3/NoC) clock; does not scale with the core. */
    double uncoreGhz = 2.4;

    int issueWidth = 5;
    int commitWidth = 5;
    int rsEntries = 97;
    int robEntries = 224;
    /** Physical vector registers beyond the architectural 32
     *  (Skylake-like: 168 renameable). */
    int prfExtraRegs = 168;
    int numVpus = 2;
    /** VPU pipeline depth == latency (fully pipelined). */
    int fp32FmaLatency = 4;
    int mpFmaLatency = 6;
    /** L1-D read ports (64B each per cycle). */
    int l1ReadPorts = 2;
    /** Broadcast-cache read ports. */
    int bcachePorts = 4;
    /** Broadcast-cache entries (direct-mapped). */
    int bcacheEntries = 32;

    /** Cache geometry. */
    int l1SizeKb = 32;
    int l1Ways = 8;
    int l1LatCycles = 4;
    int l2SizeKb = 1024;
    int l2Ways = 16;
    int l2LatCycles = 14;
    /** Paper models the 1.375MB/core non-inclusive L3 as 2.375MB/core
     *  inclusive because Sniper lacks non-inclusive caches. */
    double l3SizeKbPerCore = 2432.0; // 2.375 MB
    int l3Ways = 19;
    double l3LatNs = 12.0;

    /** 2D-mesh NoC, XY routing, 2-cycle hops (uncore domain). */
    int nocHopCycles = 2;

    double dramGBps = 119.2;
    int dramChannels = 6;
    double dramLatNs = 50.0;

    /** Hardware stream prefetcher degree (lines ahead on an L2 miss). */
    int prefetchDegree = 4;

    /** Cycles the front-end stalls to service an injected exception. */
    int exceptionServiceCycles = 50;

    /**
     * Retirement-watchdog threshold: a core that commits nothing for
     * this many cycles raises DeadlockError with a pipeline snapshot.
     * 0 defers to the SAVE_WATCHDOG_CYCLES environment variable (or
     * the built-in 200k-cycle default). Timing-neutral: not part of
     * the result-store config digest.
     */
    int watchdogCycles = 0;

    /** See SaveConfig::validate(). */
    void validate() const;

    /** Active core frequency for a given VPU count. */
    double
    coreFreqGhz(int vpus) const
    {
        return vpus >= 2 ? freq2VpuGhz : freq1VpuGhz;
    }
};

} // namespace save

#endif // SAVE_SIM_CONFIG_H
