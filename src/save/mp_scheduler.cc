/**
 * @file
 * Mixed-precision chain scheduling (paper SecV).
 *
 * VDPBF16PS maps two BF16 multiplicand lanes (MLs) onto one FP32
 * accumulator lane (AL), so vertical coalescing alone only skips an AL
 * when both of its MLs are ineffectual. SAVE additionally compresses
 * effectual MLs *horizontally* across VFMAs that share an accumulator
 * chain: up to two queued MLs are packed into each temp AL slot, in
 * program order (which preserves the FP accumulation order and hence
 * bitwise reproducibility, SecV-A), with the partial result forwarded
 * to the next chained operation at half the VFMA latency (SecV-B/C).
 */

#include "isa/bf16.h"
#include "sim/mgu.h"
#include "save/scheduler.h"

#include "sim/core.h"
#include "trace/event_trace.h"
#include "util/bitutil.h"
#include "util/logging.h"

#include <algorithm>

namespace save {

int
VectorScheduler::newChain(int8_t rot)
{
    int id;
    if (!free_chains_.empty()) {
        id = free_chains_.back();
        free_chains_.pop_back();
    } else {
        id = static_cast<int>(chains_.size());
        chains_.emplace_back();
    }
    Chain &ch = chains_[static_cast<size_t>(id)];
    ch.al = {};
    ch.cursor = {};
    ch.baseMask = 0;
    ch.rot = rot;
    // A new chain's front is the youngest VFMA so far: appending keeps
    // the live list in frontSeq order.
    live_chains_.push_back(id);
    return id;
}

void
VectorScheduler::clearChains()
{
    for (int id : live_chains_) {
        Chain &ch = chains_[static_cast<size_t>(id)];
        ch.nodes.clear();
        ch.head = 0;
        free_chains_.push_back(id);
    }
    live_chains_.clear();
}

void
VectorScheduler::onVfmaAllocated(int rs_idx)
{
    RsEntry &e = c_.rs.at(rs_idx);
    if (!e.uop.isMixedPrecision() || !c_.scfg.mpCompress ||
        !c_.scfg.enabled || c_.scfg.policy == SchedPolicy::Baseline) {
        return;
    }

    int chain_id = -1;
    int prod_idx = e.pc == kNoReg
        ? -1
        : c_.vfma_dst_to_rs_[static_cast<size_t>(e.pc)];
    if (prod_idx >= 0 && prod_idx != rs_idx) {
        const RsEntry &prod = c_.rs.at(prod_idx);
        if (prod.valid && prod.uop.dst == e.uop.dst &&
            prod.chainId >= 0 &&
            chains_[static_cast<size_t>(prod.chainId)].live()) {
            chain_id = prod.chainId;
        }
    }
    if (chain_id < 0)
        chain_id = newChain(e.rot);
    e.chainId = chain_id;
    Chain &ch = chains_[static_cast<size_t>(chain_id)];
    if (ch.head > 0 && ch.nodes.size() == ch.nodes.capacity()) {
        // Full buffer with trimmed space in front: compact instead of
        // growing. Cursors never lag head, so they shift with it.
        ch.nodes.erase(ch.nodes.begin(), ch.nodes.begin() + ch.head);
        for (int &cur : ch.cursor)
            cur -= ch.head;
        ch.head = 0;
    }
    ch.nodes.push_back({rs_idx, e.seq});
    if (ch.end() - ch.head == 1)
        ch.frontSeq = e.seq;
}

void
VectorScheduler::rebuildAfterSquash()
{
    clearChains();
    if (!c_.scfg.enabled || !c_.scfg.mpCompress)
        return;
    // Discard partial results: any AL whose final value has not been
    // scheduled for writeback gets all of its effectual MLs back and
    // will be recomputed from the accumulator input (SecV-B).
    std::vector<int> order = c_.rs.order();
    for (int idx : order) {
        RsEntry &e = c_.rs.at(idx);
        if (!e.uop.isMixedPrecision())
            continue;
        e.chainId = -1;
        if (!e.elmValid)
            continue;
        for (int al = 0; al < kVecLanes; ++al) {
            if ((e.alScheduled >> al) & 1)
                continue;
            uint32_t al_mls = e.elm & (0x3u << (kMlPerAl * al));
            if (al_mls)
                e.pendingMl |= al_mls;
        }
        e.pendingAl = mpAlMask(e.pendingMl);
    }
    // Rebuild the chain structures over the survivors, in age order,
    // using the surviving dst->RS links.
    for (int idx : order) {
        if (c_.rs.at(idx).uop.isMixedPrecision())
            onVfmaAllocated(idx);
    }
}

void
VectorScheduler::advanceCursor(Chain &chain, int al)
{
    int &cur = chain.cursor[static_cast<size_t>(al)];
    while (cur < chain.end()) {
        const ChainNode &n = chain.nodes[static_cast<size_t>(cur)];
        const RsEntry &e = c_.rs.at(n.rsIdx);
        bool stale = !e.valid || e.seq != n.seq;
        if (!stale) {
            if (!e.elmValid)
                break; // ELM unknown: cannot prove this node is done
            if (e.pendingMl & (0x3u << (kMlPerAl * al)))
                break; // effectual work remains here
        }
        ++cur;
    }
}

bool
VectorScheduler::trimChain(int chain_id)
{
    Chain &ch = chains_[static_cast<size_t>(chain_id)];
    while (ch.head < ch.end()) {
        const ChainNode &n = ch.nodes[static_cast<size_t>(ch.head)];
        const RsEntry &e = c_.rs.at(n.rsIdx);
        if (e.valid && e.seq == n.seq)
            break;
        ++ch.head;
    }
    if (ch.head == ch.end()) {
        ch.nodes.clear();
        ch.head = 0;
        free_chains_.push_back(chain_id);
        return false;
    }
    for (int &cur : ch.cursor)
        cur = std::max(cur, ch.head);
    ch.frontSeq = ch.nodes[static_cast<size_t>(ch.head)].seq;
    return true;
}

uint64_t
VectorScheduler::nextTimeWake(uint64_t now) const
{
    // A chain AL whose forwarded partial result is still in flight
    // (readyCycle in the future) becomes schedulable purely by time
    // passing; everything else the scheduler waits on arrives through
    // a publish/completion event the core already tracks.
    uint64_t best = kNeverCycle;
    for (int id : live_chains_) {
        const Chain &ch = chains_[static_cast<size_t>(id)];
        for (uint16_t m = ch.baseMask; m;) {
            const ChainAl &ca = ch.al[static_cast<size_t>(lowestSetBit(m))];
            m &= static_cast<uint16_t>(m - 1);
            // >= not >: wakeHorizon probes with cycle_ already advanced
            // to the next un-executed cycle, so a forwarded result that
            // becomes ready exactly at `now` must pin the horizon here
            // (run() then steps normally instead of jumping past the
            // cycle where this AL schedules).
            if (ca.readyCycle >= now && ca.readyCycle < best)
                best = ca.readyCycle;
        }
    }
    return best;
}

bool
VectorScheduler::scheduleChainAl(Chain &chain, int al)
{
    // The caller only passes ALs whose rotated temp position is still
    // claimable (mpFreeLanes): in a saturated cycle most ALs would die
    // at claimSlot below, after paying for the cursor walk and the
    // readiness probes. Everything the skipped work would have updated
    // (cursor advance, chain-base capture) is a pure cache whose
    // deferral is invisible: the accumulator lane value is stable once
    // published, and a cycle with every temp claimed always issues
    // them (activity), so the fast-forward horizon never sees the
    // deferred init.
    ChainAl &ca = chain.al[static_cast<size_t>(al)];
    const bool has_base = (chain.baseMask >> al) & 1;
    SAVE_ASSERT(!has_base || ca.readyCycle <= c_.now(),
                "chain AL scheduled while its forward is in flight");

    advanceCursor(chain, al);
    int &cursor = chain.cursor[static_cast<size_t>(al)];
    if (cursor >= chain.end())
        return false;

    const ChainNode &front = chain.nodes[static_cast<size_t>(cursor)];
    RsEntry &e = c_.rs.at(front.rsIdx);
    SAVE_ASSERT(e.valid && e.seq == front.seq, "cursor on stale node");
    if (!e.elmValid)
        return false;
    if (!e.aReady || !e.bReady)
        return false;

    if (!has_base) {
        // Chain base: the accumulator input of the cursor node, read
        // from the register file once its lane has been published.
        if (!c_.prf.laneIsReady(e.pc, al))
            return false;
        ca.value = c_.prf.value(e.pc).f32(al);
        ca.readyCycle = c_.now();
        chain.baseMask |= static_cast<uint16_t>(1u << al);
    }

    int temp_lane = (al + chain.rot + kVecLanes) % kVecLanes;
    int vpu = claimSlot(temp_lane, 1, false);
    SAVE_ASSERT(vpu >= 0, "mp temp lane ", temp_lane,
                " offered as free but unclaimable");

    float v = ca.value;
    int taken = 0;
    int cur = cursor;
    while (taken < kMlPerAl && cur < chain.end()) {
        const ChainNode &n = chain.nodes[static_cast<size_t>(cur)];
        RsEntry &e2 = c_.rs.at(n.rsIdx);
        if (!e2.valid || e2.seq != n.seq) {
            ++cur;
            continue;
        }
        if (!e2.elmValid)
            break;
        if (!e2.aReady || !e2.bReady)
            break;

        uint32_t al_mask = 0x3u << (kMlPerAl * al);
        if ((e2.pendingMl & al_mask) == 0) {
            // No effectual MLs here: the node passes the accumulator
            // through at this AL (handled by the generic pass-through
            // path); the chain value is unchanged.
            ++cur;
            continue;
        }

        const VecReg &a = c_.operandA(e2);
        const VecReg &b = c_.operandB(e2);
        for (int s = 0; s < kMlPerAl && taken < kMlPerAl; ++s) {
            int ml = kMlPerAl * al + s;
            if (!((e2.pendingMl >> ml) & 1))
                continue;
            v = bf16MacSkip(v, a.bf16(ml), b.bf16(ml));
            e2.pendingMl &= ~(1u << ml);
            ++taken;
        }
        if ((e2.pendingMl & al_mask) == 0) {
            // This VFMA's lane is architecturally complete: the running
            // value at this point in the chain is its destination value
            // (SecV-B: intermediate results are written back exactly).
            c_.schedulePublish(
                e2.dstPhys, al, v, e2.robIdx,
                c_.now() + static_cast<uint64_t>(c_.fmaLatency(true)));
            e2.pendingAl &= static_cast<uint16_t>(~(1u << al));
            e2.alScheduled |= static_cast<uint16_t>(1u << al);
            maybeRelease(n.rsIdx);
            ++cur;
        } else {
            break; // slot full with MLs left in this node
        }
    }

    SAVE_ASSERT(taken > 0, "claimed a slot without consuming MLs");
    cursor = cur;
    ca.value = v;
    ca.readyCycle =
        c_.now() +
        static_cast<uint64_t>(std::max(1, c_.fmaLatency(true) / 2));
    st_mp_mls_issued_.add(taken);
    if (c_.etrace_)
        c_.etrace_->chainMl(c_.now(), front.seq, al, vpu, taken);
    return true;
}

uint16_t
VectorScheduler::mpFreeLanes() const
{
    uint16_t free = 0;
    for (const Temp &t : temps_) {
        if (t.type == -1)
            return 0xffffu;
        if (t.type == 1 && !t.hc)
            free |= static_cast<uint16_t>(~t.lanesUsed);
    }
    return free;
}

void
VectorScheduler::scheduleChains()
{
    if (live_chains_.empty())
        return;

    // Oldest chain first (front-entry program order): live_chains_ is
    // kept in frontSeq order, so no per-cycle sort.
    const uint64_t now = c_.now();
    uint16_t free = mpFreeLanes();
    for (int id : live_chains_) {
        // Once every temp is claimed and type-1 positions are all
        // taken, no remaining chain AL can schedule this cycle.
        if (!free)
            break;
        Chain &ch = chains_[static_cast<size_t>(id)];
        // Union of pending effectual MLs over the chain's live nodes:
        // an AL with no bit anywhere can schedule nothing this cycle
        // (its cursor either runs to the end or parks on a node whose
        // ELM is still unknown — both no-ops), so only ALs in the
        // union pay the per-AL cursor walk. One sequential O(nodes)
        // scan replaces sixteen of them.
        uint32_t pending_union = 0;
        for (int i = ch.head; i < ch.end(); ++i) {
            const ChainNode &n = ch.nodes[static_cast<size_t>(i)];
            const RsEntry &e = c_.rs.at(n.rsIdx);
            if (e.valid && e.seq == n.seq)
                pending_union |= e.pendingMl;
        }
        // ALs without a base whose front node still has work at the
        // AL (so the cursor cannot have moved past it) wait for that
        // node's accumulator input lane to be published: skipped
        // without a call, which would return before touching state.
        uint16_t no_base = 0;
        {
            const ChainNode &n = ch.nodes[static_cast<size_t>(ch.head)];
            const RsEntry &e = c_.rs.at(n.rsIdx);
            if (e.valid && e.seq == n.seq && e.elmValid)
                no_base = static_cast<uint16_t>(
                    ~ch.baseMask & mpAlMask(e.pendingMl) &
                    ~c_.prf.laneReady(e.pc));
        }
        // AL al lands on temp lane (al + rot) mod 16: rotate the free
        // mask into AL space and visit only claimable ALs. A claim
        // only ever removes free lanes, so the mask is refreshed after
        // each one and never has to grow back.
        const int shift = (ch.rot + kVecLanes) % kVecLanes;
        auto claimable = [&] {
            uint32_t f = free;
            return static_cast<uint16_t>((f >> shift) |
                                         (f << (kVecLanes - shift)));
        };
        uint16_t m = mpAlMask(pending_union) & ~no_base & claimable();
        while (m) {
            int al = lowestSetBit(m);
            m &= static_cast<uint16_t>(m - 1);
            if (((ch.baseMask >> al) & 1) &&
                ch.al[static_cast<size_t>(al)].readyCycle > now)
                continue; // waiting on the forwarded partial result
                          // (skips the cursor walk; advanceCursor is
                          // idempotent)
            if (scheduleChainAl(ch, al)) {
                free = mpFreeLanes();
                m &= claimable();
            }
        }
    }

    // Trim every live chain, drop the exhausted ones, and restore the
    // frontSeq order. A trim only raises a chain's frontSeq, so one
    // insertion pass over the nearly-sorted list suffices.
    size_t kept = 0;
    for (size_t i = 0; i < live_chains_.size(); ++i) {
        int id = live_chains_[i];
        const Chain &ch = chains_[static_cast<size_t>(id)];
        const ChainNode &front = ch.nodes[static_cast<size_t>(ch.head)];
        const RsEntry &fe = c_.rs.at(front.rsIdx);
        if (!(fe.valid && fe.seq == front.seq) && !trimChain(id))
            continue; // exhausted: back on the free list
        const uint64_t seq = chains_[static_cast<size_t>(id)].frontSeq;
        size_t j = kept++;
        while (j > 0 &&
               chains_[static_cast<size_t>(live_chains_[j - 1])].frontSeq >
                   seq) {
            live_chains_[j] = live_chains_[j - 1];
            --j;
        }
        live_chains_[j] = id;
    }
    live_chains_.resize(kept);
}

} // namespace save
