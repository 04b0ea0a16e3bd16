/**
 * @file
 * Unit tests for the operand micronetwork: X-Y routing properties
 * (checked exhaustively over all coordinate pairs), hop counting,
 * mesh delivery latency, local bypass, link contention, delivery
 * determinism and reset, and the calendar queue's delivery order:
 * arrivals past the bucket ring, late arrivals below its base, sends
 * from inside deliver(), chaos duplicates, and a seeded differential
 * against a plain priority queue on (arrival, send order).
 */

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <tuple>

#include "chaos/chaos.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "net/mesh.hh"
#include "net/route.hh"

namespace edge::net {
namespace {

using CoordPair = std::tuple<int, int, int, int>;

class RouteAllPairs : public ::testing::TestWithParam<CoordPair>
{
};

TEST_P(RouteAllPairs, PathLengthEqualsManhattanDistance)
{
    auto [r0, c0, r1, c1] = GetParam();
    MeshGeom geom{5, 5};
    Coord src{static_cast<std::uint16_t>(r0),
              static_cast<std::uint16_t>(c0)};
    Coord dst{static_cast<std::uint16_t>(r1),
              static_cast<std::uint16_t>(c1)};
    auto path = routeXY(geom, src, dst);
    EXPECT_EQ(path.size(), hopCount(src, dst));
    // Links must be distinct (no loops under dimension order).
    std::set<LinkId> unique(path.begin(), path.end());
    EXPECT_EQ(unique.size(), path.size());
    for (LinkId l : path)
        EXPECT_LT(l, numLinks(geom));
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, RouteAllPairs,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 5),
                       ::testing::Range(0, 5), ::testing::Range(0, 5)));

TEST_P(RouteAllPairs, MeshReservesExactlyTheRouteLinks)
{
    // Mesh::send walks X-Y inline. On an idle mesh the k-th link of
    // the reference route is busy in cycle k, so a one-hop probe over
    // a link in cycle k queues one cycle iff the link is on the route.
    auto [r0, c0, r1, c1] = GetParam();
    MeshGeom geom{5, 5};
    Coord src{static_cast<std::uint16_t>(r0),
              static_cast<std::uint16_t>(c0)};
    Coord dst{static_cast<std::uint16_t>(r1),
              static_cast<std::uint16_t>(c1)};
    std::vector<LinkId> path = routeXY(geom, src, dst);
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    for (std::uint16_t row = 0; row < 5; ++row) {
        for (std::uint16_t col = 0; col < 5; ++col) {
            for (auto [dr, dc, dir] :
                 {std::tuple{0, 1, East}, std::tuple{0, -1, West},
                  std::tuple{1, 0, South}, std::tuple{-1, 0, North}}) {
                int nr = row + dr, nc = col + dc;
                if (nr < 0 || nr >= 5 || nc < 0 || nc >= 5)
                    continue;
                LinkId link = linkFrom(geom, {row, col}, dir);
                auto it = std::find(path.begin(), path.end(), link);
                bool on = it != path.end();
                mesh.reset();
                mesh.send(0, src, dst, 0);
                std::uint64_t before =
                    stats.counterValue("net.queue_cycles");
                Coord to{static_cast<std::uint16_t>(nr),
                         static_cast<std::uint16_t>(nc)};
                mesh.send(on ? static_cast<Cycle>(it - path.begin()) : 0,
                          {row, col}, to, 1);
                EXPECT_EQ(stats.counterValue("net.queue_cycles") - before,
                          on ? 1u : 0u)
                    << "link " << link;
            }
        }
    }
}

TEST(Route, HopCountIsSymmetric)
{
    Coord a{0, 4}, b{3, 1};
    EXPECT_EQ(hopCount(a, b), hopCount(b, a));
    EXPECT_EQ(hopCount(a, b), 6u);
    EXPECT_EQ(hopCount(a, a), 0u);
}

TEST(Route, SharedPrefixForSameColumnTargets)
{
    // X-then-Y: routes to the same column share the X leg.
    MeshGeom geom{5, 5};
    auto p1 = routeXY(geom, {0, 0}, {3, 2});
    auto p2 = routeXY(geom, {0, 0}, {4, 2});
    ASSERT_GE(p1.size(), 2u);
    EXPECT_EQ(p1[0], p2[0]);
    EXPECT_EQ(p1[1], p2[1]);
}

TEST(Mesh, DeliversAfterHopLatency)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 1;
    Mesh<int> mesh(p, stats);
    Cycle arrival = mesh.send(10, {0, 0}, {0, 3}, 42);
    EXPECT_EQ(arrival, 13u); // 3 hops x 1 cycle

    int got = -1;
    mesh.deliver(12, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, -1); // not yet
    mesh.deliver(13, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, 42);
    EXPECT_TRUE(mesh.empty());
}

TEST(Mesh, LocalBypassIsFree)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    EXPECT_EQ(mesh.send(7, {2, 2}, {2, 2}, 1), 7u);
    EXPECT_EQ(stats.counterValue("net.hops"), 0u);
}

TEST(Mesh, HopLatencyScales)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 3;
    Mesh<int> mesh(p, stats);
    EXPECT_EQ(mesh.send(0, {0, 0}, {2, 2}, 0), 12u); // 4 hops x 3
}

TEST(Mesh, LinkContentionSerialises)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    // Two messages wanting the same first link in the same cycle.
    Cycle a = mesh.send(0, {0, 0}, {0, 1}, 1);
    Cycle b = mesh.send(0, {0, 0}, {0, 1}, 2);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u); // waited one cycle for the link
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 1u);
}

TEST(Mesh, DisjointPathsDoNotContend)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    Cycle a = mesh.send(0, {0, 0}, {0, 1}, 1);
    Cycle b = mesh.send(0, {1, 0}, {1, 1}, 2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 0u);
}

TEST(Mesh, DeliveryOrderIsArrivalThenSendOrder)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {0, 2}, 1); // 2 hops -> arrives 2
    mesh.send(0, {4, 1}, {4, 2}, 2); // 1 hop  -> arrives 1
    mesh.send(1, {3, 1}, {3, 2}, 3); // 1 hop  -> arrives 2
    std::vector<int> order;
    mesh.deliver(10, [&](Coord, int &&v) { order.push_back(v); });
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Mesh, StatPrefixSeparatesInstances)
{
    StatSet stats("t");
    MeshParams p1;
    MeshParams p2;
    p2.statPrefix = "gcn";
    Mesh<int> a(p1, stats), b(p2, stats);
    a.send(0, {0, 0}, {0, 1}, 1);
    EXPECT_EQ(stats.counterValue("net.messages"), 1u);
    EXPECT_EQ(stats.counterValue("gcn.messages"), 0u);
}

TEST(Mesh, ResetDropsTraffic)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {4, 4}, 9);
    EXPECT_EQ(mesh.inFlight(), 1u);
    mesh.reset();
    EXPECT_TRUE(mesh.empty());
    int got = -1;
    mesh.deliver(100, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, -1);
}

// ---------------------------------------------------------------------------
// Calendar queue: the ring of per-cycle buckets plus the overflow heap.
// ---------------------------------------------------------------------------

/** (delivery cycle, payload) pairs, in delivery order. */
using Log = std::vector<std::pair<Cycle, int>>;

/** Deliver cycle by cycle over [from, to], logging each delivery. */
Log
drain(Mesh<int> &mesh, Cycle from, Cycle to)
{
    Log log;
    for (Cycle c = from; c <= to; ++c)
        mesh.deliver(c, [&](Coord, int &&v) { log.emplace_back(c, v); });
    return log;
}

TEST(MeshQueue, ArrivalsPastTheRingKeepTheirOrder)
{
    // Hop latency 100 puts every one-hop arrival past the 64-cycle
    // ring; the local bypass stays inside it.
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 100;
    Mesh<int> mesh(p, stats);
    EXPECT_EQ(mesh.send(0, {0, 0}, {0, 1}, 1), 100u);
    EXPECT_EQ(mesh.send(0, {1, 0}, {1, 1}, 2), 100u);
    EXPECT_EQ(mesh.send(5, {2, 2}, {2, 2}, 3), 5u);
    EXPECT_EQ(mesh.send(0, {0, 0}, {0, 2}, 4), 201u); // queued, 2 hops
    EXPECT_EQ(mesh.inFlight(), 4u);
    EXPECT_EQ(mesh.nextArrival(), 5u);
    Log log = drain(mesh, 0, 300);
    EXPECT_EQ(log, (Log{{5, 3}, {100, 1}, {100, 2}, {201, 4}}));
    EXPECT_TRUE(mesh.empty());
}

TEST(MeshQueue, LongLinkQueueSpillsPastTheHorizon)
{
    // 100 messages over one link leave one per cycle: arrivals 1..100,
    // so everything from cycle 64 on waits in the overflow heap. Two
    // bypass sends made just after deliver(c) arrive at c, below the
    // ring's base, and go out first in the next call.
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(mesh.send(0, {3, 3}, {3, 4}, i), Cycle(i + 1));
    EXPECT_EQ(mesh.inFlight(), 100u);
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 99u * 100u / 2u);
    Log log;
    for (Cycle c = 0; c <= 120; ++c) {
        Cycle want = c == 0                 ? 1
                     : c == 51 || c == 71   ? c - 1
                     : c <= 100             ? c
                                            : ~Cycle{0};
        EXPECT_EQ(mesh.nextArrival(), want) << "cycle " << c;
        mesh.deliver(c, [&](Coord, int &&v) { log.emplace_back(c, v); });
        if (c == 50 || c == 70)
            mesh.send(c, {1, 1}, {1, 1}, 1000 + static_cast<int>(c));
    }
    Log want;
    for (int i = 0; i < 100; ++i) {
        if (i + 1 == 51 || i + 1 == 71)
            want.emplace_back(i + 1, 1000 + i);
        want.emplace_back(i + 1, i);
    }
    EXPECT_EQ(log, want);
    EXPECT_TRUE(mesh.empty());
}

TEST(MeshQueue, LateArrivalIsDeliveredFirst)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.deliver(100, [](Coord, int &&) {});
    mesh.send(100, {0, 0}, {0, 1}, 1); // arrives 101, in the ring
    mesh.send(40, {2, 0}, {2, 2}, 2);  // arrives 42: below the base
    mesh.send(40, {1, 1}, {1, 1}, 3);  // arrives 40: below the base
    EXPECT_EQ(mesh.nextArrival(), 40u);
    Log log;
    mesh.deliver(101, [&](Coord, int &&v) { log.emplace_back(101, v); });
    EXPECT_EQ(log, (Log{{101, 3}, {101, 2}, {101, 1}}));
}

TEST(MeshQueue, SendDuringDeliverForTheCurrentCycle)
{
    // A message sent from inside deliver() with an arrival at or before
    // `now` goes out in the same call, in (arrival, send order) with
    // the rest: one for the current cycle after everything already due
    // then, one for an earlier cycle (below the ring's base once the
    // call reached cycle 3) next. One for a later cycle waits.
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {0, 3}, 1); // arrives 3
    mesh.send(1, {1, 0}, {1, 2}, 2); // arrives 3
    mesh.send(0, {2, 0}, {2, 1}, 3); // arrives 1
    Log log;
    auto fn = [&](Coord, int &&v) {
        log.emplace_back(3, v);
        if (v == 3)
            mesh.send(2, {4, 4}, {4, 4}, 12); // cycle 2, still ahead
        if (v == 1)
            mesh.send(3, {4, 4}, {4, 4}, 10); // cycle 3, after 2
        if (v == 2)
            mesh.send(1, {4, 4}, {4, 4}, 13); // cycle 1: late
        if (v == 10)
            mesh.send(3, {4, 4}, {4, 3}, 11); // cycle 4
    };
    mesh.deliver(3, fn);
    EXPECT_EQ(log,
              (Log{{3, 3}, {3, 12}, {3, 1}, {3, 2}, {3, 13}, {3, 10}}));
    EXPECT_EQ(mesh.inFlight(), 1u);
    EXPECT_EQ(mesh.nextArrival(), 4u);
}

TEST(MeshQueue, NextArrivalAcrossTheRingWrap)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 1;
    Mesh<int> mesh(p, stats);
    mesh.deliver(60, [](Coord, int &&) {}); // ring now starts at 61
    mesh.send(60, {0, 0}, {0, 2}, 1);       // 62: bucket 62
    mesh.send(60, {1, 1}, {1, 1}, 2);       // 60: late, heap
    mesh.send(70, {2, 0}, {2, 1}, 3);       // 71: bucket 7, past the wrap
    mesh.send(123, {3, 0}, {3, 1}, 4);      // 124: bucket 60, ring's last
    mesh.send(124, {4, 0}, {4, 1}, 5);      // 125: past the horizon
    EXPECT_EQ(mesh.inFlight(), 5u);
    std::vector<Cycle> seen;
    Log log;
    for (Cycle c = mesh.nextArrival(); c != ~Cycle{0};
         c = mesh.nextArrival()) {
        seen.push_back(c);
        mesh.deliver(c, [&](Coord, int &&v) { log.emplace_back(c, v); });
    }
    EXPECT_EQ(seen, (std::vector<Cycle>{60, 62, 71, 124, 125}));
    EXPECT_EQ(log, (Log{{60, 2}, {62, 1}, {71, 3}, {124, 4}, {125, 5}}));
    EXPECT_TRUE(mesh.empty());
}

TEST(MeshQueue, InFlightCountsRingAndHeapAndResetClearsBoth)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 40;
    Mesh<int> mesh(p, stats);
    mesh.send(0, {0, 0}, {0, 1}, 1); // 40: ring
    mesh.send(0, {0, 0}, {0, 2}, 2); // 80: heap
    mesh.send(0, {2, 2}, {2, 2}, 3); // 0: ring
    EXPECT_EQ(mesh.inFlight(), 3u);
    mesh.deliver(40, [](Coord, int &&) {});
    EXPECT_EQ(mesh.inFlight(), 1u);
    mesh.send(41, {0, 0}, {0, 1}, 4); // link still free: 81
    EXPECT_EQ(mesh.inFlight(), 2u);
    mesh.reset();
    EXPECT_TRUE(mesh.empty());
    EXPECT_EQ(mesh.inFlight(), 0u);
    EXPECT_EQ(mesh.nextArrival(), ~Cycle{0});
    // After a reset the mesh starts over at cycle 0: links are free
    // and nothing old is delivered.
    EXPECT_EQ(mesh.send(0, {0, 0}, {0, 1}, 5), 40u);
    Log log = drain(mesh, 0, 200);
    EXPECT_EQ(log, (Log{{40, 5}}));
}

TEST(MeshQueue, ChaosDuplicatesLandPastTheHorizonInOrder)
{
    // Every message is duplicated with a skew of up to 300 cycles, so
    // most duplicates overflow the ring. Each payload is delivered
    // twice, the original first, and the delivery order is (arrival,
    // send order): a duplicate is sent just before its original.
    chaos::ChaosParams cp;
    cp.seed = 3;
    cp.profile = chaos::Profile::Net;
    cp.duplicatePermille = 1000;
    cp.duplicateSkewMax = 300;
    chaos::ChaosEngine engine(cp);
    StatSet stats("t");
    MeshParams p;
    p.chaos = &engine;
    Mesh<int> mesh(p, stats);
    std::vector<Cycle> first(40);
    for (int i = 0; i < 40; ++i) {
        Coord src{static_cast<std::uint16_t>(i % 5),
                  static_cast<std::uint16_t>(i / 5 % 5)};
        first[i] = mesh.send(static_cast<Cycle>(i), src, {2, 2}, i);
    }
    EXPECT_EQ(mesh.inFlight(), 80u);
    EXPECT_EQ(engine.counts().duplicates, 40u);
    Log log = drain(mesh, 0, 400);
    ASSERT_EQ(log.size(), 80u);
    std::vector<int> times(40, 0);
    std::vector<std::pair<Cycle, std::uint64_t>> keys;
    Cycle latest_dup = 0;
    for (auto [c, v] : log) {
        // Send order: duplicate of i is 2i, original is 2i + 1.
        bool original = times[v]++ == 0;
        if (original)
            EXPECT_EQ(c, first[v]);
        else
            latest_dup = std::max(latest_dup, c);
        keys.emplace_back(c, 2 * static_cast<std::uint64_t>(v) +
                                 (original ? 1 : 0));
    }
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(std::count(times.begin(), times.end(), 2), 40);
    // All sends precede the first deliver(), so the ring spans cycles
    // [0, 64): every later duplicate waited in the overflow heap.
    EXPECT_GE(latest_dup, 64u);
}

TEST(MeshQueue, RandomDifferentialAgainstPriorityQueue)
{
    // Reference: one priority queue on (arrival, send order). Random
    // sends from random cycles (often below the last delivery, often
    // past the horizon via long hop latencies), random deliver() jumps
    // and random sends from inside deliver(); every delivery must be
    // the reference's minimum, and the counts and next arrival agree.
    using Key = std::tuple<Cycle, std::uint64_t, int>;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        StatSet stats("t");
        MeshParams p;
        p.hopLatency = static_cast<unsigned>(1 + rng.below(seed % 2 ? 3 : 40));
        Mesh<int> mesh(p, stats);
        std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref;
        std::uint64_t seq = 0;
        int next_id = 0;
        Cycle now = 0;
        auto coord = [&] {
            return Coord{static_cast<std::uint16_t>(rng.below(5)),
                         static_cast<std::uint16_t>(rng.below(5))};
        };
        auto send = [&](Cycle at) {
            int id = next_id++;
            Cycle t = mesh.send(at, coord(), coord(), id);
            ref.emplace(t, seq++, id);
        };
        std::uint64_t delivered = 0;
        for (int step = 0; step < 3000; ++step) {
            unsigned n = static_cast<unsigned>(rng.below(6));
            for (unsigned k = 0; k < n; ++k) {
                Cycle back = rng.below(4) == 0 ? rng.below(80) : 0;
                send(now > back ? now - back : 0);
            }
            now += rng.below(8) == 0 ? rng.below(200) : rng.below(3);
            mesh.deliver(now, [&](Coord, int &&v) {
                ASSERT_FALSE(ref.empty());
                auto [t, s, id] = ref.top();
                ref.pop();
                EXPECT_LE(t, now);
                ++delivered;
                // Sends from inside, sometimes a burst that outgrows
                // the queue's pool; the message handed in must stay
                // intact through them.
                unsigned sends = rng.below(5) == 0    ? 1
                                 : rng.below(40) == 0 ? 12
                                                      : 0;
                for (unsigned k = 0; k < sends; ++k)
                    send(now - std::min<Cycle>(now, rng.below(3)));
                EXPECT_EQ(v, id);
            });
            EXPECT_TRUE(ref.empty() || std::get<0>(ref.top()) > now);
            ASSERT_EQ(mesh.inFlight(), ref.size());
            EXPECT_EQ(mesh.nextArrival(),
                      ref.empty() ? ~Cycle{0} : std::get<0>(ref.top()));
        }
        EXPECT_GT(delivered, 5000u);
        EXPECT_EQ(stats.counterValue("net.delivered"), delivered);
    }
}

} // namespace
} // namespace edge::net
