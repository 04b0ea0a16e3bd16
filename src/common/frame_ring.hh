/**
 * @file
 * A fixed ring of per-block window entries, oldest first: the shape
 * of the processor's in-flight blocks, the register unit and the
 * LSQ. Its capacity is the frame count. Entries are constructed once
 * and reused in place, so mapping, committing and flushing a block
 * allocate nothing. A block enters at the young end, commits from
 * the old end and is squashed from the young end.
 *
 * Each entry has a `seq` member. Seqs ascend from oldest to youngest
 * but have gaps after a flush, so a seq is found by search, never by
 * offset arithmetic: the oldest entry first (commit and its checks
 * ask for it every cycle), then a binary search of the rest.
 */

#ifndef EDGE_COMMON_FRAME_RING_HH
#define EDGE_COMMON_FRAME_RING_HH

#include <vector>

#include "common/types.hh"

namespace edge {

template <typename T>
class FrameRing
{
  public:
    explicit FrameRing(unsigned capacity) : _slots(capacity) {}

    unsigned size() const { return _count; }
    bool empty() const { return _count == 0; }
    bool full() const { return _count == capacity(); }
    unsigned capacity() const { return static_cast<unsigned>(_slots.size()); }

    /** Ring slot of the entry `age` places from the oldest. */
    unsigned
    slot(unsigned age) const
    {
        unsigned s = _head + age;
        return s >= capacity() ? s - capacity() : s;
    }
    /** Age (0 = oldest) of the entry in ring slot `s`. */
    unsigned
    ageOfSlot(unsigned s) const
    {
        return s >= _head ? s - _head : s + capacity() - _head;
    }
    unsigned slotOf(const T &e) const
    {
        return static_cast<unsigned>(&e - _slots.data());
    }
    unsigned ageOf(const T &e) const { return ageOfSlot(slotOf(e)); }

    /** The entry `age` places from the oldest (0 = oldest). */
    T &at(unsigned age) { return _slots[slot(age)]; }
    T &inSlot(unsigned s) { return _slots[s]; }
    T &oldest() { return _slots[_head]; }
    T &youngest() { return at(_count - 1); }

    /** Claim the slot after the youngest (the ring must not be full);
     *  it still holds its last block, which the caller overwrites. */
    T &
    pushYoung()
    {
        T &e = at(_count);
        ++_count;
        return e;
    }
    void
    popOldest()
    {
        if (++_head == capacity())
            _head = 0;
        --_count;
    }
    void popYoung() { --_count; }

    /** The entry with this seq, or null. */
    T *
    find(DynBlockSeq seq)
    {
        if (_count == 0)
            return nullptr;
        if (oldest().seq == seq)
            return &oldest();
        unsigned lo = 1, hi = _count;
        while (lo < hi) {
            unsigned mid = (lo + hi) / 2;
            if (at(mid).seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo < _count && at(lo).seq == seq ? &at(lo) : nullptr;
    }
    const T *
    find(DynBlockSeq seq) const
    {
        return const_cast<FrameRing *>(this)->find(seq);
    }

    /** Contiguous slot storage (for views that walk it by stride). */
    const T *data() const { return _slots.data(); }
    unsigned head() const { return _head; }

  private:
    std::vector<T> _slots;
    unsigned _head = 0;
    unsigned _count = 0;
};

} // namespace edge

#endif // EDGE_COMMON_FRAME_RING_HH
