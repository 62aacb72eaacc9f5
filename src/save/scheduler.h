/**
 * @file
 * The vector scheduler — SAVE's core contribution (paper SecIII-V).
 *
 * Each cycle the scheduler builds up to N "temp" operations (one per
 * active VPU) out of the effectual lanes pending in the reservation
 * stations:
 *
 *  - Baseline: conventional select; one whole VFMA per VPU per cycle.
 *  - VC: vertical coalescing (Algorithm 1) — an effectual lane may
 *    only move to the same lane position of the temp.
 *  - RVC: VC plus per-instruction rotation by -1/0/+1 lanes keyed on
 *    the accumulator's logical register number mod 3 (SecIV-B).
 *  - HC: horizontal compression reference — lanes may take any temp
 *    position, at +hcExtraLatency cycles for collapse/expand (SecIII).
 *
 * Lane-wise dependence (SecIV-C) is a flag orthogonal to the policy.
 * Mixed-precision VFMAs under SecV compression are handled by the
 * chain machinery in mp_scheduler.cc: per (accumulator-chain, AL)
 * queues of effectual multiplicand lanes, packed two per temp AL slot
 * in program order, with partial results forwarded at half latency.
 *
 * Select scans only the RS sublist it needs — the post-ELM issuable
 * list (or, under the baseline policy, the pending list, which is
 * then the full age order) — and operand readiness comes from the
 * writeback-wakeup flags, so no per-cycle full-RS polling remains.
 * Pass-through and the combination-window count share one walk of
 * that list, and the coalesced/HC walk is skipped when the chain path
 * owns every issuable entry. The per-cycle temps are fixed-capacity
 * members and the chains live in a recycled slab: steady-state
 * scheduling performs no heap allocation.
 */

#ifndef SAVE_SAVE_SCHEDULER_H
#define SAVE_SAVE_SCHEDULER_H

#include <array>
#include <cstdint>
#include <vector>

#include "isa/vec.h"
#include "sim/vpu.h"
#include "stats/stats.h"

namespace save {

class Auditor;
class Core;
struct RsEntry;

/** Per-cycle vector select/issue logic. */
class VectorScheduler
{
  public:
    explicit VectorScheduler(Core &core);

    /** Run one cycle of pass-through, selection, and VPU issue. */
    void step();

    /** Hook: a VFMA entered the RS (links mixed-precision chains). */
    void onVfmaAllocated(int rs_idx);

    /** True when no chain work remains (drain check). */
    bool idle() const { return live_chains_.empty(); }

    /**
     * Earliest cycle after now at which a blocked mixed-precision
     * chain forward becomes available (chain ALs waiting out the
     * half-latency partial-result forward are the only scheduler state
     * that wakes by time alone); kNeverCycle if none. Feeds the core's
     * stall fast-forward horizon.
     */
    uint64_t nextTimeWake(uint64_t now) const;

    /**
     * Exception support (paper SecV-B): discard partial results of
     * surviving mixed-precision VFMAs (restore the pending-ML state
     * of any accumulator lane whose final value was not yet scheduled
     * for writeback) and rebuild the chain structures over the
     * surviving RS contents. Called by the core after a squash.
     */
    void rebuildAfterSquash();

  private:
    /** One VPU's in-flight temp being assembled this cycle. */
    struct Temp
    {
        uint16_t lanesUsed = 0;
        int count = 0;
        int type = -1; // -1 free, 0 fp32, 1 mixed-precision
        bool hc = false;
        LaneWriteVec writes;
        /** Whole-register result (baseline select / dense fast path):
         *  all sixteen lanes of one entry, issued as a single VecWrite.
         *  Such a temp is always claimed whole, so writes stays empty
         *  while vecValid is set. */
        bool vecValid = false;
        VecWrite vec;
    };

    /**
     * Claim a temp slot. For positional policies lane is the temp lane
     * position; for HC pass -1 to take any free slot.
     * @return VPU index, or -1 if no capacity.
     */
    int claimSlot(int lane, int type, bool hc);

    /** True while any temp could still take a positional lane of some
     *  type (free temp, or any non-full non-HC temp). */
    bool positionalCapacityLeft() const;

    /** Pass-through publish; returns the combination-window size
     *  counted over the same issuable-list walk. */
    int passThrough();
    void scheduleBaseline();
    void scheduleCoalesced();
    void scheduleHc();
    void issueTemps();
    /** Lanes of e that may legally issue this cycle. */
    uint16_t schedulableAls(const RsEntry &e) const;
    void maybeRelease(int rs_idx);

    /** Mixed-precision chain path (mp_scheduler.cc). ---------------- */

    /** Running partial result of one chain AL; valid once the AL's
     *  bit is set in Chain::baseMask. */
    struct ChainAl
    {
        float value = 0.0f;
        uint64_t readyCycle = 0;
    };

    struct ChainNode
    {
        int rsIdx;
        uint64_t seq;
    };

    /**
     * One accumulator chain, a slot of the chain slab. The live nodes
     * are nodes[head, nodes.size()) in program order; trimming only
     * advances head, and the buffer is compacted when an append finds
     * it full, so its capacity survives trims and id reuse. Cursors
     * index nodes directly and always lie in [head, nodes.size()].
     */
    struct Chain
    {
        std::vector<ChainNode> nodes;
        int head = 0;
        std::array<ChainAl, kVecLanes> al{};
        std::array<int, kVecLanes> cursor{};
        /** ALs whose chain base (accumulator input) has been read. */
        uint16_t baseMask = 0;
        int8_t rot = 0;
        uint64_t frontSeq = 0;

        int end() const { return static_cast<int>(nodes.size()); }
        /** Live chains hold nodes; free slab slots hold none. */
        bool live() const { return head < end(); }
    };

    void scheduleChains();
    /** @return true if the AL claimed a temp slot. */
    bool scheduleChainAl(Chain &chain, int al);
    /** Advance an AL cursor over consumed/ineffectual nodes. */
    void advanceCursor(Chain &chain, int al);
    /** Drop released front nodes; free the chain once exhausted.
     *  @return true while the chain is still live. */
    bool trimChain(int chain_id);
    /** Take a slab slot (recycled if possible) for a new chain. */
    int newChain(int8_t rot);
    /** Return every live chain to the free list. */
    void clearChains();
    /** Temp lanes a mixed-precision positional lane could still claim
     *  this cycle (bit l set iff claimSlot(l, 1, false) would succeed;
     *  zero once no type-1 capacity is left). Pure probe. */
    uint16_t mpFreeLanes() const;

    friend class Auditor;

    Core &c_;
    /** Chain slab indexed by chain id; ids are recycled via
     *  free_chains_. */
    std::vector<Chain> chains_;
    std::vector<int> free_chains_;
    /** Live chain ids, oldest front first (strictly ascending
     *  frontSeq). New chains append; trims re-sort in one insertion
     *  pass. */
    std::vector<int> live_chains_;

    /** Reusable per-cycle scratch (no steady-state allocation). */
    std::vector<Temp> temps_;

    StatRef st_passthrough_lanes_;
    StatRef st_baseline_issues_;
    StatRef st_coalesced_lanes_;
    StatRef st_hc_lanes_;
    StatRef st_temps_issued_;
    StatRef st_temp_fill_;
    StatRef st_mp_mls_issued_;
};

} // namespace save

#endif // SAVE_SAVE_SCHEDULER_H
