/**
 * @file
 * Reservation stations. Entries carry the SAVE per-instruction state:
 * the Effectual Lane Mask (ELM), pending/pass-through lane sets, the
 * rotational state (R-state), and the mixed-precision chain link.
 *
 * Age order is maintained explicitly so the select logic can implement
 * the paper's oldest-first priority (Algorithm 1, lines 3-9). The
 * order lives in intrusive doubly-linked lists over the slot array, so
 * push, release, and iteration are allocation-free and O(1) per entry
 * (the seed implementation kept a side vector and paid an O(n)
 * std::find per release).
 *
 * Besides the full age list, every entry sits on exactly one of two
 * age-ordered scheduler sublists:
 *
 *   pending  -- no ELM yet; what the MGU stage scans.
 *   issuable -- ELM generated; what select/pass-through/combination-
 *               window logic scans. (Under the baseline policy no ELM
 *               is ever generated, so the baseline select simply scans
 *               the pending list — which is then the full age order.)
 *
 * promote() moves an entry from pending to issuable with an
 * age-ordered insertion, so both sublists stay oldest-first even when
 * a late operand makes an old entry's ELM arrive after a younger
 * one's. The issuable sublist also keeps a count of its
 * mixed-precision entries, so select can tell in O(1) when the
 * mixed-precision chain path owns everything issuable.
 */

#ifndef SAVE_SIM_RS_H
#define SAVE_SIM_RS_H

#include <cstdint>
#include <vector>

#include "isa/uop.h"
#include "isa/vec.h"
#include "sim/regfile.h"

namespace save {

/** One reservation-station entry. */
struct RsEntry
{
    bool valid = false;
    Uop uop;
    uint64_t seq = 0;
    int robIdx = -1;

    /** Renamed sources; pa == kNoReg for embedded-broadcast operands. */
    int pa = kNoReg;
    int pb = kNoReg;
    int pc = kNoReg;
    int dstPhys = kNoReg;

    /** Vector-wise readiness of the multiplicands. Maintained by
     *  register-writeback wakeup (Core::wakeWaiters), not polling. */
    bool aReady = false;
    bool bReady = false;
    /** Accumulator fully ready. Only maintained under the baseline
     *  select (which needs the whole register at once); the positional
     *  policies consume per-lane PRF ready masks directly. */
    bool cReady = false;
    /** Value delivered by an embedded-broadcast memory operand. */
    VecReg bcastVal;
    /** Write mask captured at allocation (0xffff when unmasked). */
    uint16_t wm = 0xffffu;

    /** SAVE state ---------------------------------------------------- */
    bool elmValid = false;
    /** Effectual lanes: bit per AL for FP32, bit per ML for MP. */
    uint32_t elm = 0;
    /** MP only: multiplicand lanes not yet issued. */
    uint32_t pendingMl = 0;
    /** Accumulator lanes with unissued effectual work. */
    uint16_t pendingAl = 0;
    /** Accumulator lanes that pass C through, not yet published. */
    uint16_t passPending = 0;
    /** MP compression: ALs whose final result has been scheduled for
     *  writeback. Unscheduled partially-consumed ALs are *partial
     *  results*: discarded and recomputed on an exception (SecV-B). */
    uint16_t alScheduled = 0;
    /** Rotational state: lane shift in {-1, 0, +1} (SecIV-B). */
    int8_t rot = 0;
    /** Mixed-precision accumulator chain id, -1 if none. */
    int chainId = -1;
    /** Baseline/load path: the op has been issued whole. */
    bool issued = false;
};

/** Fixed-capacity RS with intrusive age-ordered lists. */
class Rs
{
  public:
    /** End-of-list sentinel for the first/next iteration methods. */
    static constexpr int kEnd = -1;

    explicit Rs(int entries);

    bool full() const { return size_ == capacity_; }
    int size() const { return size_; }
    int capacity() const { return capacity_; }

    /** Insert at the tail of the age order (and of the pending
     *  sublist). Throws ConfigError if the RS is full — overflow means
     *  the allocator's rs.full() back-pressure check was bypassed. */
    int push(RsEntry e);

    /** Allocate a cleared entry at the age/pending tail for in-place
     *  construction (hot path: avoids copying an RsEntry through the
     *  call). Same overflow contract as push. */
    int allocEntry();

    /** Free a slot: O(1) unlink from the age order and its sublist. */
    void release(int idx);

    /** Move an entry from the pending to the issuable sublist (MGU
     *  handoff), inserting by seq so the sublist stays age-ordered. */
    void promote(int idx);

    RsEntry &at(int idx) { return slots_[static_cast<size_t>(idx)]; }
    const RsEntry &at(int idx) const
    {
        return slots_[static_cast<size_t>(idx)];
    }

    /** Full age-order iteration (oldest first). Capture next(idx)
     *  before releasing idx inside a loop. */
    int first() const { return age_head_; }
    int next(int idx) const
    {
        return nodes_[static_cast<size_t>(idx)].anext;
    }

    /** Pending (pre-ELM) sublist, oldest first. */
    int firstPending() const { return head_[0]; }
    /** Issuable (post-ELM) sublist, oldest first. */
    int firstIssuable() const { return head_[1]; }
    int nextInList(int idx) const
    {
        return nodes_[static_cast<size_t>(idx)].snext;
    }
    int issuableCount() const { return list_size_[1]; }
    /** Mixed-precision entries on the issuable sublist (O(1)). */
    int issuableMpCount() const { return issuable_mp_; }
    int pendingCount() const { return list_size_[0]; }

    /** Valid slot indices, oldest first — materialized copy for cold
     *  paths (snapshots, squash rebuild) and tests. */
    std::vector<int> order() const;

  private:
    struct Node
    {
        int aprev = kEnd;
        int anext = kEnd;
        int sprev = kEnd;
        int snext = kEnd;
        /** Which sublist the slot is on: 0 pending, 1 issuable. */
        uint8_t list = 0;
        /** Counted in issuable_mp_ (set by promote). */
        bool mp = false;
    };

    void listUnlink(int idx);
    void listPushBack(int idx, int list);

    int capacity_;
    int size_ = 0;
    std::vector<RsEntry> slots_;
    std::vector<Node> nodes_;
    std::vector<int> free_;
    int age_head_ = kEnd;
    int age_tail_ = kEnd;
    int head_[2] = {kEnd, kEnd};
    int tail_[2] = {kEnd, kEnd};
    int list_size_[2] = {0, 0};
    int issuable_mp_ = 0;
};

} // namespace save

#endif // SAVE_SIM_RS_H
