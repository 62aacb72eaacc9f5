#include "sim/rs.h"

#include "util/error.h"
#include "util/logging.h"

namespace save {

Rs::Rs(int entries) : capacity_(entries)
{
    slots_.resize(static_cast<size_t>(entries));
    nodes_.resize(static_cast<size_t>(entries));
    free_.reserve(static_cast<size_t>(entries));
    for (int i = entries - 1; i >= 0; --i)
        free_.push_back(i);
}

int
Rs::push(RsEntry e)
{
    int idx = allocEntry();
    e.valid = true;
    slots_[static_cast<size_t>(idx)] = e;
    return idx;
}

int
Rs::allocEntry()
{
    if (free_.empty())
        throw ConfigError("RS overflow: push into a full " +
                          std::to_string(capacity_) +
                          "-entry RS (allocator back-pressure bypassed)");
    int idx = free_.back();
    free_.pop_back();
    RsEntry &e = slots_[static_cast<size_t>(idx)];
    e = RsEntry{};
    e.valid = true;

    Node &n = nodes_[static_cast<size_t>(idx)];
    n.aprev = age_tail_;
    n.anext = kEnd;
    if (age_tail_ != kEnd)
        nodes_[static_cast<size_t>(age_tail_)].anext = idx;
    else
        age_head_ = idx;
    age_tail_ = idx;

    listPushBack(idx, 0);
    ++size_;
    return idx;
}

void
Rs::release(int idx)
{
    SAVE_ASSERT(slots_[static_cast<size_t>(idx)].valid,
                "releasing an invalid RS slot");
    slots_[static_cast<size_t>(idx)].valid = false;

    Node &n = nodes_[static_cast<size_t>(idx)];
    if (n.aprev != kEnd)
        nodes_[static_cast<size_t>(n.aprev)].anext = n.anext;
    else
        age_head_ = n.anext;
    if (n.anext != kEnd)
        nodes_[static_cast<size_t>(n.anext)].aprev = n.aprev;
    else
        age_tail_ = n.aprev;
    n.aprev = n.anext = kEnd;

    listUnlink(idx);
    free_.push_back(idx);
    --size_;
}

void
Rs::promote(int idx)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    SAVE_ASSERT(n.list == 0, "promoting an already-issuable RS entry");
    listUnlink(idx);

    // Age-ordered insert: walk back from the tail. ELMs usually arrive
    // in rough age order, so the walk is short in practice.
    const uint64_t seq = slots_[static_cast<size_t>(idx)].seq;
    int after = tail_[1];
    while (after != kEnd && slots_[static_cast<size_t>(after)].seq > seq)
        after = nodes_[static_cast<size_t>(after)].sprev;

    n.list = 1;
    n.mp = slots_[static_cast<size_t>(idx)].uop.isMixedPrecision();
    issuable_mp_ += n.mp;
    n.sprev = after;
    if (after == kEnd) {
        n.snext = head_[1];
        if (head_[1] != kEnd)
            nodes_[static_cast<size_t>(head_[1])].sprev = idx;
        else
            tail_[1] = idx;
        head_[1] = idx;
    } else {
        Node &a = nodes_[static_cast<size_t>(after)];
        n.snext = a.snext;
        if (a.snext != kEnd)
            nodes_[static_cast<size_t>(a.snext)].sprev = idx;
        else
            tail_[1] = idx;
        a.snext = idx;
    }
    ++list_size_[1];
}

std::vector<int>
Rs::order() const
{
    std::vector<int> out;
    out.reserve(static_cast<size_t>(size_));
    for (int i = age_head_; i != kEnd;
         i = nodes_[static_cast<size_t>(i)].anext)
        out.push_back(i);
    return out;
}

void
Rs::listUnlink(int idx)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    int l = n.list;
    if (n.sprev != kEnd)
        nodes_[static_cast<size_t>(n.sprev)].snext = n.snext;
    else
        head_[l] = n.snext;
    if (n.snext != kEnd)
        nodes_[static_cast<size_t>(n.snext)].sprev = n.sprev;
    else
        tail_[l] = n.sprev;
    n.sprev = n.snext = kEnd;
    --list_size_[l];
    if (l == 1 && n.mp) {
        --issuable_mp_;
        n.mp = false;
    }
}

void
Rs::listPushBack(int idx, int list)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    n.list = static_cast<uint8_t>(list);
    n.sprev = tail_[list];
    n.snext = kEnd;
    if (tail_[list] != kEnd)
        nodes_[static_cast<size_t>(tail_[list])].snext = idx;
    else
        head_[list] = idx;
    tail_[list] = idx;
    ++list_size_[list];
}

} // namespace save
