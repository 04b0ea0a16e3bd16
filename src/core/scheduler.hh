/**
 * @file
 * Wake-list scheduler for the event-driven cycle engine: a calendar
 * wheel of pending wake-up cycles plus a min-heap overflow for wakes
 * beyond the wheel's horizon. Components register the cycles at
 * which they could next do work (fetch completion, livelock sample);
 * the run loop jumps straight to the earliest wake, or the watchdog
 * deadline if that is earlier, instead of ticking through dead
 * cycles.
 *
 * Wakes are idempotent markers ("something may happen at cycle c"),
 * not event payloads — registering the same cycle twice is free, and
 * a stale wake merely causes one processed-but-inert cycle, which is
 * observably identical to the ticking loop by construction. The
 * near window (1024 cycles) covers every latency in the machine
 * (hops, ALU, cache); only the livelock horizon lands in the
 * overflow heap.
 */

#ifndef EDGE_CORE_SCHEDULER_HH
#define EDGE_CORE_SCHEDULER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace edge::core {

class Scheduler
{
  public:
    /** Returned by nextAtOrAfter when no wake is pending. */
    static constexpr Cycle kIdle = ~Cycle{0};

    /** Register a wake-up at cycle `when` (idempotent). */
    void
    wakeAt(Cycle when)
    {
        if (when == kIdle)
            return;
        if (when < _base)
            when = _base; // already due: keep it visible, never lose it
        if (when - _base < kWheelSize) {
            unsigned idx = static_cast<unsigned>(when & (kWheelSize - 1));
            _bits[idx >> 6] |= 1ull << (idx & 63);
        } else {
            _far.push_back(when);
            std::push_heap(_far.begin(), _far.end(),
                           std::greater<Cycle>{});
        }
    }

    /**
     * Earliest pending wake at or after `now` (kIdle if none).
     * Everything before `now` is pruned: the caller has processed
     * those cycles. The returned wake stays registered until a later
     * call prunes past it.
     */
    Cycle
    nextAtOrAfter(Cycle now)
    {
        advanceTo(now);
        while (!_far.empty() && _far.front() < now) {
            std::pop_heap(_far.begin(), _far.end(),
                          std::greater<Cycle>{});
            _far.pop_back();
        }
        Cycle hit = scanWheel();
        if (!_far.empty())
            hit = std::min(hit, _far.front());
        return hit;
    }

  private:
    static constexpr unsigned kWheelBits = 10;
    static constexpr unsigned kWheelSize = 1u << kWheelBits;
    static constexpr unsigned kWords = kWheelSize / 64;

    /** Slide the wheel window forward, clearing passed slots. */
    void
    advanceTo(Cycle now)
    {
        if (now <= _base)
            return;
        if (now - _base >= kWheelSize) {
            _bits.fill(0);
            _base = now;
            return;
        }
        for (Cycle c = _base; c < now;) {
            unsigned idx = static_cast<unsigned>(c & (kWheelSize - 1));
            unsigned word = idx >> 6, bit = idx & 63;
            Cycle n = std::min<Cycle>(now - c, 64 - bit);
            std::uint64_t mask = n == 64
                                     ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1} << n) - 1)
                                           << bit;
            _bits[word] &= ~mask;
            c += n;
        }
        _base = now;
    }

    /** First set slot in [_base, _base + kWheelSize), or kIdle. */
    Cycle
    scanWheel() const
    {
        for (Cycle c = _base; c < _base + kWheelSize;) {
            unsigned idx = static_cast<unsigned>(c & (kWheelSize - 1));
            unsigned word = idx >> 6, bit = idx & 63;
            std::uint64_t w = _bits[word] >> bit;
            if (w)
                return c + static_cast<unsigned>(__builtin_ctzll(w));
            c += 64 - bit;
        }
        return kIdle;
    }

    std::array<std::uint64_t, kWords> _bits{};
    Cycle _base = 0;          ///< wheel covers [_base, _base + kWheelSize)
    std::vector<Cycle> _far;  ///< min-heap of wakes past the wheel
};

} // namespace edge::core

#endif // EDGE_CORE_SCHEDULER_HH
