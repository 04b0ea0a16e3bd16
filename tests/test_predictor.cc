/**
 * @file
 * Unit tests for the prediction machinery: the next-block (exit)
 * predictor with speculative history repair, the store-set
 * dependence predictor (training rules, map-time dependence
 * capture, LFST lifecycle), the perfect oracle, and the simple
 * blind/conservative policies.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "predictor/dependence.hh"
#include "predictor/next_block.hh"
#include "predictor/oracle.hh"
#include "predictor/store_sets.hh"

namespace edge::pred {
namespace {

/**
 * An OlderStores view over a hand-written list (oldest first): one
 * window block per run of equal seqs, then the load's own block.
 */
struct OlderList
{
    explicit OlderList(const std::vector<UnresolvedStore> &list)
    {
        for (const UnresolvedStore &u : list) {
            if (blocks.empty() || blocks.back().seq != u.seq)
                blocks.push_back({u.seq, u.archIdx, u.block, 0});
            blocks.back().unresolved |= std::uint32_t{1} << u.lsid;
        }
        blocks.push_back({}); // the load's block: nothing older in it
    }

    OlderStores
    view() const
    {
        auto n = static_cast<unsigned>(blocks.size());
        return {blocks.data(), sizeof(WindowBlock), n, 0, n, 0};
    }

    std::vector<WindowBlock> blocks;
};

TEST(NextBlock, LearnsAStableExit)
{
    StatSet stats("t");
    NextBlockPredictor p(NextBlockParams{}, stats);
    // Simulate the real protocol: predict, push, later train with
    // the snapshot taken at prediction time.
    unsigned last = 0;
    for (int i = 0; i < 8; ++i) {
        last = p.predict(7);
        auto snap = p.pushSpeculativeHistory(1);
        p.update(7, 1, snap);
    }
    EXPECT_EQ(last, 1u); // converged on the loop exit
}

TEST(NextBlock, HysteresisResistsOneOff)
{
    StatSet stats("t");
    NextBlockParams params;
    params.historyBits = 0; // single context for this test
    NextBlockPredictor p(params, stats);
    for (int i = 0; i < 4; ++i)
        p.update(3, 2, 0);
    p.update(3, 0, 0); // one disagreement
    EXPECT_EQ(p.predict(3), 2u);
    // But persistent change eventually retrains.
    for (int i = 0; i < 6; ++i)
        p.update(3, 0, 0);
    EXPECT_EQ(p.predict(3), 0u);
}

TEST(NextBlock, HistorySnapshotsRestoreExactly)
{
    StatSet stats("t");
    NextBlockPredictor p(NextBlockParams{}, stats);
    unsigned before = p.predict(9);
    auto snap = p.pushSpeculativeHistory(3);
    p.pushSpeculativeHistory(1);
    p.restoreHistory(snap);
    EXPECT_EQ(p.predict(9), before);
}

TEST(NextBlock, OutcomeCounters)
{
    StatSet stats("t");
    NextBlockPredictor p(NextBlockParams{}, stats);
    p.recordOutcome(true);
    p.recordOutcome(false);
    p.recordOutcome(true);
    EXPECT_EQ(stats.counterValue("nbp.correct"), 2u);
    EXPECT_EQ(stats.counterValue("nbp.wrong"), 1u);
}

// ---------------------------------------------------------------------------
// Store sets.
// ---------------------------------------------------------------------------

class StoreSetsTest : public ::testing::Test
{
  protected:
    StoreSetsTest() : pred(StoreSetsParams{}, stats) {}

    bool
    mustWait(DynBlockSeq seq, BlockId blk, Lsid lsid, CapturedDep dep,
             const std::vector<UnresolvedStore> &older)
    {
        LoadQuery q;
        q.seq = seq;
        q.block = blk;
        q.lsid = lsid;
        OlderList list(older);
        q.older = list.view();
        q.dep = dep;
        return pred.loadMustWait(q);
    }

    StatSet stats{"t"};
    StoreSetsPredictor pred;
};

TEST_F(StoreSetsTest, UntrainedLoadsNeverWait)
{
    CapturedDep dep = pred.onLoadMapped(10, 0, 1);
    EXPECT_FALSE(dep.valid);
    std::vector<UnresolvedStore> older = {{9, 9, 0, 2}};
    EXPECT_FALSE(mustWait(10, 0, 1, dep, older));
}

TEST_F(StoreSetsTest, ViolationTrainsThePair)
{
    pred.onViolation(/*load*/ 0, 1, /*store*/ 0, 2);
    EXPECT_TRUE(pred.hasSet(0, 1));
    EXPECT_TRUE(pred.hasSet(0, 2));

    // Next instance: the store maps first (fetch order), then the
    // load captures it.
    pred.onStoreMapped(20, 0, 2);
    CapturedDep dep = pred.onLoadMapped(21, 0, 1);
    ASSERT_TRUE(dep.valid);
    EXPECT_EQ(dep.seq, 20u);
    EXPECT_EQ(dep.lsid, 2u);

    std::vector<UnresolvedStore> older = {{20, 20, 0, 2}};
    EXPECT_TRUE(mustWait(21, 0, 1, dep, older));
    EXPECT_EQ(stats.counterValue("storesets.waits"), 1u);
}

TEST_F(StoreSetsTest, WaitEndsWhenDepResolves)
{
    pred.onViolation(0, 1, 0, 2);
    pred.onStoreMapped(20, 0, 2);
    CapturedDep dep = pred.onLoadMapped(21, 0, 1);
    // The store has resolved: it is no longer in olderUnresolved.
    std::vector<UnresolvedStore> older;
    EXPECT_FALSE(mustWait(21, 0, 1, dep, older));
}

TEST_F(StoreSetsTest, LfstClearsOnResolve)
{
    pred.onViolation(0, 1, 0, 2);
    pred.onStoreMapped(20, 0, 2);
    pred.onStoreResolved(20, 0, 2);
    CapturedDep dep = pred.onLoadMapped(21, 0, 1);
    EXPECT_FALSE(dep.valid); // no in-flight store instance to fear
}

TEST_F(StoreSetsTest, LoadCapturesOnlyOlderFetches)
{
    // The load maps before this iteration's store: it must not
    // capture its own block's younger store.
    pred.onViolation(0, 1, 0, 2);
    CapturedDep dep = pred.onLoadMapped(30, 0, 1);
    EXPECT_FALSE(dep.valid);
    pred.onStoreMapped(30, 0, 2); // maps after the load
}

TEST_F(StoreSetsTest, MergeAdoptsOneSet)
{
    pred.onViolation(0, 1, 0, 2); // set A: {(0,1), (0,2)}
    pred.onViolation(1, 3, 1, 4); // set B: {(1,3), (1,4)}
    pred.onViolation(0, 1, 1, 4); // merge A and B
    // Now a store from the old B set must be captured by an A load.
    pred.onStoreMapped(40, 1, 4);
    CapturedDep dep = pred.onLoadMapped(41, 0, 1);
    EXPECT_TRUE(dep.valid);
    EXPECT_EQ(dep.seq, 40u);
}

TEST_F(StoreSetsTest, FlushInvalidatesInFlightEntries)
{
    pred.onViolation(0, 1, 0, 2);
    pred.onStoreMapped(50, 0, 2);
    pred.onFlush(45);
    CapturedDep dep = pred.onLoadMapped(51, 0, 1);
    EXPECT_FALSE(dep.valid); // the captured instance was squashed
}

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

std::vector<compiler::BlockTrace>
twoBlockTrace()
{
    std::vector<compiler::BlockTrace> trace(2);
    trace[0].block = 7;
    trace[0].exitIndex = 1;
    trace[0].memOps = {{true, 0x100, 8, 0}}; // store [0x100,0x108)
    trace[1].block = 8;
    trace[1].exitIndex = 0;
    trace[1].memOps = {{false, 0x104, 4, 0}}; // load overlaps it
    return trace;
}

TEST(OracleDb, ExposesTheCommittedPath)
{
    OracleDb db(twoBlockTrace());
    EXPECT_EQ(db.numBlocks(), 2u);
    EXPECT_EQ(db.blockAt(0), 7u);
    EXPECT_EQ(db.blockAt(1), 8u);
    EXPECT_EQ(db.blockAt(5), kInvalidBlock);
    EXPECT_EQ(db.exitAt(0), 1u);
    ASSERT_NE(db.memOp(0, 0), nullptr);
    EXPECT_TRUE(db.memOp(0, 0)->isStore);
    EXPECT_EQ(db.memOp(0, 1), nullptr);
    EXPECT_EQ(db.memOp(9, 0), nullptr);
}

TEST(OraclePredictor, WaitsExactlyOnTrueConflicts)
{
    OracleDb db(twoBlockTrace());
    StatSet stats("t");
    OraclePredictor p(db, stats);

    std::vector<UnresolvedStore> older = {{1, 0, 7, 0}};
    LoadQuery q;
    q.seq = 2;
    q.archIdx = 1;
    q.block = 8;
    q.lsid = 0;
    q.addr = 0x104;
    q.bytes = 4;
    OlderList list(older);
    q.older = list.view();
    EXPECT_TRUE(p.loadMustWait(q)); // store will overlap

    q.addr = 0x200; // disjoint address: no need to wait
    EXPECT_FALSE(p.loadMustWait(q));
}

TEST(OraclePredictor, IgnoresWrongPathBlocks)
{
    OracleDb db(twoBlockTrace());
    StatSet stats("t");
    OraclePredictor p(db, stats);
    std::vector<UnresolvedStore> older = {{1, 0, 7, 0}};
    LoadQuery q;
    q.archIdx = 1;
    q.block = 99; // does not match the trace: wrong path
    q.addr = 0x104;
    q.bytes = 4;
    OlderList list(older);
    q.older = list.view();
    EXPECT_FALSE(p.loadMustWait(q));
    EXPECT_EQ(stats.counterValue("oracle.off_path"), 1u);
}

// ---------------------------------------------------------------------------
// Simple policies and the factory.
// ---------------------------------------------------------------------------

TEST(Policies, BlindNeverWaits)
{
    StatSet stats("t");
    auto p = makeDependencePredictor(DepPolicy::Blind, nullptr, stats);
    OlderList list({{1, 1, 0, 0}});
    LoadQuery q;
    q.older = list.view();
    EXPECT_FALSE(p->loadMustWait(q));
    EXPECT_STREQ(p->name(), "blind");
}

TEST(Policies, ConservativeWaitsForAnyUnresolvedStore)
{
    StatSet stats("t");
    auto p = makeDependencePredictor(DepPolicy::Conservative, nullptr,
                                     stats);
    OlderList list({{1, 1, 0, 0}});
    LoadQuery q;
    q.older = list.view();
    EXPECT_TRUE(p->loadMustWait(q));
    OlderList none({});
    q.older = none.view();
    EXPECT_FALSE(p->loadMustWait(q));
}

TEST(Policies, NamesRoundTrip)
{
    EXPECT_STREQ(depPolicyName(DepPolicy::Blind), "blind");
    EXPECT_STREQ(depPolicyName(DepPolicy::Conservative), "conservative");
    EXPECT_STREQ(depPolicyName(DepPolicy::StoreSets), "store-sets");
    EXPECT_STREQ(depPolicyName(DepPolicy::Oracle), "oracle");
}

// ---------------------------------------------------------------------------
// The older-store view every policy reads.
// ---------------------------------------------------------------------------

/** A ring entry with a tail, as the LSQ's blocks have. */
struct PaddedBlock : WindowBlock
{
    std::uint64_t tail[5] = {};
};

/**
 * Seeded synthetic windows on a wrapping ring: each policy's answer
 * from the view must equal its answer from a list of older
 * unresolved stores built the old way (block by block, the load's
 * own block cut to lower LSIDs).
 */
TEST(OlderStoresView, PoliciesAnswerAsFromTheOldList)
{
    // A committed path of 32 blocks of static ids 0..3, each with
    // eight memory ops; a window block with another id is off-path.
    Rng rng(2024);
    std::vector<compiler::BlockTrace> trace(32);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].block = static_cast<BlockId>(i % 4);
        for (unsigned l = 0; l < 8; ++l) {
            trace[i].memOps.push_back(
                {rng.chance(1, 2), 0x100 + 8 * rng.below(16),
                 static_cast<std::uint8_t>(1u << rng.below(4)), 0});
        }
    }
    OracleDb db(trace);
    StatSet stats("t");
    auto conservative =
        makeDependencePredictor(DepPolicy::Conservative, nullptr, stats);
    StoreSetsPredictor store_sets(StoreSetsParams{}, stats);
    OraclePredictor oracle(db, stats);

    unsigned any_windows = 0, dep_hits = 0, oracle_waits = 0;
    for (unsigned trial = 0; trial < 4000; ++trial) {
        auto size = static_cast<unsigned>(rng.range(1, 16));
        auto head = static_cast<unsigned>(rng.below(size));
        auto count = static_cast<unsigned>(rng.range(1, size));
        std::vector<PaddedBlock> ring(size);
        DynBlockSeq seq = rng.range(1, 50);
        for (unsigned a = 0; a < count; ++a) {
            PaddedBlock &b = ring[(head + a) % size];
            b.seq = seq;
            seq += rng.range(1, 3);
            b.archIdx = rng.below(trace.size());
            b.blockId = rng.chance(1, 5) ? 9 : trace[b.archIdx].block;
            b.unresolved = static_cast<std::uint32_t>(
                rng.next() & rng.next() & 0xff);
        }
        auto lsid = static_cast<Lsid>(rng.below(9));
        std::uint32_t below = (std::uint32_t{1} << lsid) - 1;
        OlderStores view(&ring[0], sizeof(PaddedBlock), size, head,
                         count, below);

        // The old list.
        std::vector<UnresolvedStore> list;
        for (unsigned a = 0; a < count; ++a) {
            const PaddedBlock &b = ring[(head + a) % size];
            std::uint32_t m = a + 1 == count ? b.unresolved & below
                                             : b.unresolved;
            for (Lsid l = 0; l < 32; ++l)
                if (m >> l & 1)
                    list.push_back({b.seq, b.archIdx, b.blockId, l});
        }

        std::vector<UnresolvedStore> walked;
        view.anyOf([&](const UnresolvedStore &u) {
            walked.push_back(u);
            return false;
        });
        ASSERT_EQ(walked.size(), list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
            EXPECT_EQ(walked[i].seq, list[i].seq);
            EXPECT_EQ(walked[i].archIdx, list[i].archIdx);
            EXPECT_EQ(walked[i].block, list[i].block);
            EXPECT_EQ(walked[i].lsid, list[i].lsid);
        }

        // Conservative and the LSQ's replay hold: any older store.
        const PaddedBlock &own = ring[(head + count - 1) % size];
        LoadQuery q;
        q.seq = own.seq;
        q.archIdx = own.archIdx;
        q.block = trace[own.archIdx].block; // on the committed path
        q.lsid = lsid;
        q.addr = 0x100 + 8 * rng.below(16);
        q.bytes = 8;
        q.older = view;
        EXPECT_EQ(view.any(), !list.empty());
        EXPECT_EQ(conservative->loadMustWait(q), !list.empty());
        any_windows += !list.empty();

        // Store sets: no captured dependence never waits; a captured
        // one waits iff that store instance is in the list.
        EXPECT_FALSE(store_sets.loadMustWait(q));
        q.dep.valid = true;
        if (!list.empty() && rng.chance(1, 2)) {
            const UnresolvedStore &u = list[rng.below(list.size())];
            q.dep.seq = u.seq;
            q.dep.lsid = u.lsid;
        } else {
            q.dep.seq = ring[(head + rng.below(count)) % size].seq;
            q.dep.lsid = static_cast<Lsid>(rng.below(9));
        }
        bool in_list = false;
        for (const UnresolvedStore &u : list)
            in_list |= u.seq == q.dep.seq && u.lsid == q.dep.lsid;
        EXPECT_EQ(store_sets.loadMustWait(q), in_list);
        dep_hits += in_list;

        // Oracle: the old loop over the list.
        bool conflict = false;
        for (const UnresolvedStore &u : list) {
            if (db.blockAt(u.archIdx) != u.block)
                continue;
            const OracleDb::MemOp *op = db.memOp(u.archIdx, u.lsid);
            if (op && op->isStore &&
                rangesOverlap(op->addr, op->bytes, q.addr, q.bytes)) {
                conflict = true;
                break;
            }
        }
        EXPECT_EQ(oracle.loadMustWait(q), conflict);
        oracle_waits += conflict;
    }
    // Every branch of every policy was exercised.
    EXPECT_GT(any_windows, 100u);
    EXPECT_LT(any_windows, 3900u);
    EXPECT_GT(dep_hits, 100u);
    EXPECT_GT(oracle_waits, 100u);
}

TEST(Ranges, OverlapEdgeCases)
{
    EXPECT_TRUE(rangesOverlap(0x100, 8, 0x107, 1));
    EXPECT_FALSE(rangesOverlap(0x100, 8, 0x108, 1)); // adjacent
    EXPECT_FALSE(rangesOverlap(0x108, 1, 0x100, 8));
    EXPECT_TRUE(rangesOverlap(0x100, 1, 0x100, 1));
    EXPECT_TRUE(rangesOverlap(0x100, 8, 0x0fc, 8));
}

} // namespace
} // namespace edge::pred
