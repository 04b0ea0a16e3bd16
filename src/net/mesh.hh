/**
 * @file
 * The operand micronetwork: a 2-D mesh carrying single-flit operand
 * messages between execution nodes, the register-file row and the
 * LSQ/D-cache column. Timing model: X-Y routing, one message per
 * link per cycle (greedy reservation in send order, which is
 * deterministic because the core ticks components in a fixed order),
 * `hopLatency` cycles per traversed link, zero-cost local bypass
 * when source == destination.
 *
 * In-flight messages wait in a calendar queue: a ring of kRingCycles
 * per-cycle FIFO buckets starting at cycle `_base`, plus a min-heap
 * on (arrival, send order) for the arrivals the ring cannot hold —
 * those past its horizon, those already below its base, and sends
 * made during a delivery that would have to grow the bucket pool.
 * Delivery merges the two on (arrival, send order), exactly as one
 * global heap would give. Send and delivery cost O(1) per message
 * while the ring holds it, and finding the next arrival is a bit
 * scan, so empty cycles cost nothing. Messages are written straight
 * into their queue slot and handed to the consumer in place.
 *
 * Mesh is a class template over the payload so the network layer
 * stays independent of core message formats.
 */

#ifndef EDGE_NET_MESH_HH
#define EDGE_NET_MESH_HH

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "net/route.hh"

namespace edge::net {

struct MeshParams
{
    MeshGeom geom;
    unsigned hopLatency = 1; ///< cycles per link traversal
    std::string statPrefix = "net"; ///< counter namespace
    /**
     * Optional fault injector (not owned): adds extra hop delay to
     * some messages and delivers duplicates of others. Safe for any
     * payload whose consumers drop stale waves — which is exactly
     * the protocol property the chaos harness exercises.
     */
    chaos::ChaosEngine *chaos = nullptr;
};

template <typename Payload>
class Mesh
{
  public:
    /** Cycles the bucket ring spans (one bit each in _occupied). */
    static constexpr unsigned kRingCycles = 64;

    Mesh(const MeshParams &params, StatSet &stats)
        : _p(params),
          _linkFree(numLinks(_p.geom), 0),
          _sent(stats.counter(_p.statPrefix + ".messages",
                              "messages sent")),
          _delivered(stats.counter(_p.statPrefix + ".delivered",
                                   "messages delivered")),
          _hops(stats.counter(_p.statPrefix + ".hops",
                              "total link traversals")),
          _queued(stats.counter(_p.statPrefix + ".queue_cycles",
                                "cycles spent waiting for links"))
    {
    }

    /**
     * Inject a message at cycle `now`; it becomes visible to the
     * destination's deliver phase at the returned cycle.
     */
    Cycle
    send(Cycle now, Coord src, Coord dst, const Payload &payload)
    {
        return emplace(now, src, dst,
                       [&payload](Payload &p) { p = payload; });
    }

    /**
     * send(), with the message built in its queue slot: `fill` is
     * called as fill(Payload &) on a value-initialised payload, once
     * per queued copy (twice when chaos duplicates the message), and
     * must write the same message each time.
     */
    template <typename Fill>
    Cycle
    emplace(Cycle now, Coord src, Coord dst, Fill &&fill)
    {
        ++_sent;
        Cycle t = now;
        if (!(src == dst)) {
            const MeshGeom &g = _p.geom;
            panic_if(src.row >= g.rows || src.col >= g.cols ||
                         dst.row >= g.rows || dst.col >= g.cols,
                     "coordinate outside the %ux%u mesh", g.rows,
                     g.cols);
            // X-Y walk, reserving each link as it is reached: along
            // the source row to the destination column, then along
            // that column. Link ids as in linkFrom(); a step east or
            // west moves 4 ids, a step south or north 4 * cols.
            Cycle queued = 0;
            auto walk = [&](LinkId link, std::int64_t stride,
                            unsigned steps) {
                for (; steps; --steps) {
                    Cycle start = std::max(t, _linkFree[link]);
                    queued += start - t;
                    _linkFree[link] = start + 1;
                    t = start + _p.hopLatency;
                    link = static_cast<LinkId>(link + stride);
                }
            };
            unsigned dx = src.col < dst.col ? dst.col - src.col
                                            : src.col - dst.col;
            unsigned dy = src.row < dst.row ? dst.row - src.row
                                            : src.row - dst.row;
            auto row_stride = static_cast<std::int64_t>(4 * g.cols);
            if (src.col < dst.col)
                walk(linkFrom(g, src, East), 4, dx);
            else
                walk(linkFrom(g, src, West), -4, dx);
            Coord turn{src.row, dst.col};
            if (src.row < dst.row)
                walk(linkFrom(g, turn, South), row_stride, dy);
            else
                walk(linkFrom(g, turn, North), -row_stride, dy);
            _hops += dx + dy;
            _queued += queued;
        }
        if (_p.chaos) {
            // Chaos: hold this message on a congested virtual channel
            // for a few extra cycles, and sometimes deliver a second,
            // bit-identical copy later. Consumers drop the copy as a
            // stale wave — duplicate delivery is idempotent.
            t += _p.chaos->hopJitter();
            if (_p.chaos->duplicate())
                push(t + _p.chaos->duplicateSkew(), dst, fill);
        }
        push(t, dst, fill);
        return t;
    }

    /**
     * Deliver every message that has arrived by cycle `now`, including
     * any that `fn` itself sends with an arrival at or before `now`.
     * @param fn invoked as fn(Coord dst, Payload &&msg) in a
     *        deterministic (arrival time, send order) order
     *
     * Order: each step takes the earlier, on (arrival, send order),
     * of the heap's top and the earliest non-empty bucket's head. A
     * bucket is FIFO, so in send order, and the buckets are in cycle
     * order; the merge of the two sorted sources is the order one
     * global heap would give, whichever source a message sits in.
     *
     * A ring message is handed to `fn` in place, in its pool node.
     * The reference stays valid while `fn` runs: the node joins the
     * free list only after `fn` returns, and push() never makes the
     * pool reallocate during a delivery (see push()).
     */
    template <typename Fn>
    void
    deliver(Cycle now, Fn &&fn)
    {
        _delivering = true;
        struct Done
        {
            bool &flag;
            ~Done() { flag = false; }
        } done{_delivering};
        for (;;) {
            Cycle ring = earliestBucket();
            const Node *head =
                ring <= now ? &_pool[_ring[ring % kRingCycles].head]
                            : nullptr;
            const Event *top =
                !_far.empty() && _far.front().arrival <= now ? &_far.front()
                                                             : nullptr;
            bool from_heap =
                top && (!head || top->arrival < ring ||
                        (top->arrival == ring && top->seq < head->seq));
            if (from_heap) {
                // Explicit heap (not a priority_queue) so the due
                // event is moved out, never copied; `fn` may push.
                std::pop_heap(_far.begin(), _far.end(), laterThan);
                Event ev = std::move(_far.back());
                _far.pop_back();
                hand(ev.dst, ev.payload, fn);
                continue;
            }
            if (!head)
                break;
            unsigned slot = static_cast<unsigned>(ring % kRingCycles);
            Bucket &b = _ring[slot];
            std::uint32_t i = b.head;
            hand(_pool[i].dst, _pool[i].payload, fn);
            // Unlink after `fn`: a send from `fn` to this cycle may
            // have appended behind node i.
            b.head = _pool[i].next;
            if (b.head == kNil) {
                b.tail = kNil;
                _occupied &= ~(std::uint64_t{1} << slot);
            }
            _pool[i].next = _free;
            _free = i;
        }
        // Everything due by `now` is gone, so the ring may start at
        // now + 1: later sends for [now + 1, now + kRingCycles] then
        // land in buckets.
        if (now + 1 > _base)
            _base = now + 1;
    }

    bool empty() const { return _count == 0; }
    std::size_t inFlight() const { return _count; }

    /**
     * Arrival cycle of the earliest in-flight message, or ~Cycle{0}
     * when the network is empty. The event-driven run loop uses this
     * to jump straight to the next delivery instead of polling.
     */
    Cycle
    nextArrival() const
    {
        Cycle ring = earliestBucket();
        return _far.empty() ? ring : std::min(ring, _far.front().arrival);
    }

    /** Drop all in-flight traffic and link state (machine reset). */
    void
    reset()
    {
        _ring.fill(Bucket{});
        _pool.clear();
        _free = kNil;
        _delivering = false;
        _occupied = 0;
        _base = 0;
        _far.clear();
        _count = 0;
        std::fill(_linkFree.begin(), _linkFree.end(), 0);
    }

    const MeshParams &params() const { return _p; }

  private:
    struct Event
    {
        Cycle arrival = 0;
        std::uint64_t seq = 0; ///< tie-break for deterministic delivery
        Coord dst;
        Payload payload{};
    };

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * A pooled event; `next` chains a bucket's FIFO or the free list.
     * Its arrival is its bucket's cycle. 64 bytes for a core::Msg.
     */
    struct Node
    {
        std::uint64_t seq = 0;
        Coord dst;
        std::uint32_t next = kNil;
        Payload payload{};
    };

    /** Messages arriving in one cycle: a FIFO of pool nodes. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** Heap predicate: a sorts after b (min-heap on arrival, seq). */
    static bool
    laterThan(const Event &a, const Event &b)
    {
        return a.arrival != b.arrival ? a.arrival > b.arrival
                                      : a.seq > b.seq;
    }

    template <typename Fn>
    void
    hand(Coord dst, Payload &payload, Fn &fn)
    {
        --_count;
        ++_delivered;
        fn(dst, std::move(payload));
    }

    /** Cycle of the earliest non-empty bucket, ~Cycle{0} if none. */
    Cycle
    earliestBucket() const
    {
        if (!_occupied)
            return ~Cycle{0};
        // Rotate so bit 0 is _base's bucket; the lowest set bit is
        // then the offset of the earliest occupied cycle.
        auto shift = static_cast<int>(_base % kRingCycles);
        return _base + static_cast<Cycle>(
                           std::countr_zero(std::rotr(_occupied, shift)));
    }

    /**
     * Queue a message for delivery at `arrival`, built by `fill` in
     * its slot. During a delivery the pool may take a new node only
     * while it has spare capacity; otherwise the message goes to the
     * heap, so the node deliver() is handing out never moves.
     */
    template <typename Fill>
    void
    push(Cycle arrival, Coord dst, Fill &fill)
    {
        ++_count;
        std::uint64_t seq = _nextSeq++;
        std::uint32_t i = _free;
        bool in_ring = arrival >= _base && arrival - _base < kRingCycles &&
                       (i != kNil || !_delivering ||
                        _pool.size() < _pool.capacity());
        if (!in_ring) {
            Event &ev = _far.emplace_back();
            ev.arrival = arrival;
            ev.seq = seq;
            ev.dst = dst;
            fill(ev.payload);
            std::push_heap(_far.begin(), _far.end(), laterThan);
            return;
        }
        // A free node if there is one, else a new one.
        if (i != kNil) {
            _free = _pool[i].next;
        } else {
            i = static_cast<std::uint32_t>(_pool.size());
            _pool.emplace_back();
        }
        Node &n = _pool[i];
        n.seq = seq;
        n.dst = dst;
        n.next = kNil;
        n.payload = Payload{};
        fill(n.payload);
        unsigned slot = static_cast<unsigned>(arrival % kRingCycles);
        Bucket &b = _ring[slot];
        if (b.tail == kNil)
            b.head = i;
        else
            _pool[b.tail].next = i;
        b.tail = i;
        _occupied |= std::uint64_t{1} << slot;
    }

    MeshParams _p;
    std::vector<Cycle> _linkFree;
    std::array<Bucket, kRingCycles> _ring; ///< cycle c: _ring[c % kRingCycles]
    std::vector<Node> _pool;     ///< storage of every bucket's events
    std::uint32_t _free = kNil;  ///< free-list head in _pool
    bool _delivering = false;    ///< deliver() is handing out a node
    std::uint64_t _occupied = 0; ///< bit c % kRingCycles: bucket non-empty
    Cycle _base = 0;             ///< ring: [_base, _base + kRingCycles)
    std::vector<Event> _far;     ///< min-heap: past the horizon or below _base
    std::size_t _count = 0;      ///< messages in flight
    std::uint64_t _nextSeq = 0;

    Counter &_sent;
    Counter &_delivered;
    Counter &_hops;
    Counter &_queued;
};

} // namespace edge::net

#endif // EDGE_NET_MESH_HH
