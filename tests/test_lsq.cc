/**
 * @file
 * Unit tests for the load/store queue — the DSRE protocol's core
 * component — exercised directly through its message interface with
 * captured replies: forwarding (including byte-accurate partial
 * overlap), violation detection, DSRE resends vs flush violations,
 * the commit wave (finality upgrades), policy holds, the replay
 * hold and resend-budget mechanisms, commit draining, and flushes —
 * plus the flat storage itself: ring reuse across sequence gaps,
 * flushes in the middle of a violation's hit list, accesses straddling
 * two index words, the finality frontier, and program-order queries.
 */

#include <gtest/gtest.h>

#include "panic_check.hh"

#include "common/stats.hh"
#include "compiler/builder.hh"
#include "lsq/lsq.hh"

namespace edge::lsq {
namespace {

using isa::Target;

/**
 * Fixture: an LSQ over a tiny hierarchy with captured outputs, plus
 * a canned block shape: every mapped block has LSID 0 = 8-byte load
 * (slot 0) and LSID 1 = 8-byte store (slot 1).
 */
class LsqTest : public ::testing::Test
{
  protected:
    explicit LsqTest(Recovery recovery = Recovery::Dsre,
                     pred::DepPolicy policy = pred::DepPolicy::Blind)
        : hier(mem::HierarchyParams{}, stats),
          policyPtr(pred::makeDependencePredictor(policy, nullptr,
                                                  stats)),
          lsq(std::make_unique<LoadStoreQueue>(params(recovery), &hier,
                                               &memory, policyPtr.get(),
                                               stats, kFrames))
    {
        // The canned two-memop block.
        compiler::ProgramBuilder pb("t");
        auto &b = pb.newBlock("blk");
        compiler::Val a = b.readReg(1);
        compiler::Val x = b.load(a, 8);
        b.store(b.readReg(2), x, 8);
        b.branchHalt();
        prog = std::make_unique<isa::Program>(pb.build());
    }

    static constexpr unsigned kFrames = 16;

    static LsqParams
    params(Recovery recovery)
    {
        LsqParams p;
        p.recovery = recovery;
        return p;
    }

    void
    map(DynBlockSeq seq)
    {
        lsq->mapBlock(seq, seq, 0, prog->block(0));
    }

    void
    sendLoad(Cycle now, DynBlockSeq seq, Addr addr,
             ValState st = ValState::Spec, std::uint32_t wave = 1)
    {
        lsq->loadRequest(now, seq, 0, addr, st, wave, 0);
    }

    void
    sendStore(Cycle now, DynBlockSeq seq, Addr addr, Word data,
              ValState ast = ValState::Final,
              ValState dst = ValState::Final, std::uint32_t wave = 1)
    {
        lsq->storeResolve(now, seq, 1, addr, data, ast, dst, wave, 0);
    }

    const LoadReply &
    lastReply()
    {
        EXPECT_FALSE(replies.empty());
        return replies.back();
    }

    StatSet stats{"t"};
    mem::SparseMemory memory;
    mem::Hierarchy hier;
    std::unique_ptr<pred::DependencePredictor> policyPtr;
    std::unique_ptr<LoadStoreQueue> lsq;
    std::unique_ptr<isa::Program> prog;
    /** The LSQ's outboxes; nothing drains them, so they accumulate. */
    std::vector<LoadReply> &replies = lsq->replies();
    std::vector<Violation> &violations = lsq->flushRequests();
};

class LsqFlushTest : public LsqTest
{
  protected:
    LsqFlushTest() : LsqTest(Recovery::Flush) {}
};

class LsqConservativeTest : public LsqTest
{
  protected:
    LsqConservativeTest()
        : LsqTest(Recovery::Flush, pred::DepPolicy::Conservative)
    {
    }
};

TEST_F(LsqTest, LoadReadsMemoryWhenNoStoresMatch)
{
    memory.write(0x100, 8, 77);
    map(1);
    sendLoad(0, 1, 0x100);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(lastReply().value, 77u);
    EXPECT_GT(lastReply().when, 0u);
}

TEST_F(LsqTest, ForwardsFromYoungestOlderStore)
{
    memory.write(0x100, 8, 1);
    map(1);
    map(2);
    map(3);
    sendStore(0, 1, 0x100, 10);
    sendStore(0, 2, 0x100, 20);
    sendLoad(1, 3, 0x100);
    EXPECT_EQ(lastReply().value, 20u); // youngest older wins
}

TEST_F(LsqTest, SameBlockOlderStoreForwards)
{
    map(1);
    sendStore(0, 1, 0x200, 42);
    // LSID 0 load is OLDER than the LSID 1 store: no forwarding.
    sendLoad(1, 1, 0x200);
    EXPECT_EQ(lastReply().value, 0u);
}

TEST_F(LsqTest, PartialOverlapMergesBytes)
{
    memory.write(0x100, 8, 0x1111111111111111ull);
    map(1);
    map(2);
    lsq->storeResolve(0, 1, 1, 0x104, 0xAABBCCDD, ValState::Final,
                      ValState::Final, 1, 0); // 4-byte... entry is 8B
    sendLoad(1, 2, 0x100);
    // The store covers bytes [0x104, 0x10c); the load reads
    // [0x100, 0x108): upper half comes from the store's low half.
    EXPECT_EQ(lastReply().value, 0xAABBCCDD11111111ull);
}

TEST_F(LsqTest, ViolationTriggersResendWithNewValue)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100); // speculates: reads memory, 5
    EXPECT_EQ(lastReply().value, 5u);
    sendStore(3, 1, 0x100, 99); // older store changes the value
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(lastReply().value, 99u);
    EXPECT_GT(lastReply().wave, replies[0].wave);
    EXPECT_EQ(lsq->violations(), 1u);
    EXPECT_TRUE(violations.empty()); // DSRE: no flush requested
}

TEST_F(LsqTest, SameValueStoreCausesNoResend)
{
    memory.write(0x100, 8, 99);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99); // silent store
    EXPECT_EQ(replies.size(), 1u);
    EXPECT_EQ(lsq->violations(), 0u);
}

TEST_F(LsqTest, CommitWaveUpgradesSpecLoads)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    // Load in block 2 with a Final address but an unresolved older
    // store: the reply must be speculative.
    sendLoad(0, 2, 0x100, ValState::Final);
    EXPECT_EQ(lastReply().state, ValState::Spec);
    // The older store resolves Final to a disjoint address: the
    // load's value was right all along; an upgrade follows.
    sendStore(5, 1, 0x900, 1);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(lastReply().state, ValState::Final);
    EXPECT_EQ(lastReply().value, 7u);
    EXPECT_TRUE(lastReply().statusOnly);
}

TEST_F(LsqTest, SpecAddressBlocksFinality)
{
    memory.write(0x100, 8, 7);
    map(1);
    sendLoad(0, 1, 0x100, ValState::Spec);
    EXPECT_EQ(lastReply().state, ValState::Spec);
    // Address upgrade arrives: now the load can finalise (no older
    // stores at all).
    sendLoad(2, 1, 0x100, ValState::Final, 2);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, StoreAddrFinalityEnablesLoadFinality)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    // Store resolves to a disjoint address with Final address but
    // SPEC data: the load can still finalise (data irrelevant).
    sendStore(5, 1, 0x900, 1, ValState::Final, ValState::Spec);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, OverlappingSpecDataBlocksFinality)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    std::size_t before = replies.size();
    // Overlapping store with Final addr but Spec data: forwarded
    // bytes could still change, so no upgrade to Final.
    sendStore(5, 1, 0x100, 7, ValState::Final, ValState::Spec);
    for (std::size_t i = before; i < replies.size(); ++i)
        EXPECT_EQ(replies[i].state, ValState::Spec);
    EXPECT_FALSE(lsq->blockMemFinal(2));
}

TEST_F(LsqTest, ResendBudgetDefersToCommitWave)
{
    memory.write(0x100, 8, 0);
    map(1);
    map(2);
    map(3);
    map(4);
    map(5);
    map(6);
    map(7);
    // Young load speculates early.
    sendLoad(0, 7, 0x100, ValState::Final);
    // Six older stores resolve one by one, each changing the value;
    // the budget (4) forces deferral after the fourth resend.
    for (DynBlockSeq s = 1; s <= 6; ++s) {
        lsq->storeResolve(s, s, 1, 0x100, 100 + s, ValState::Final,
                          ValState::Final, 1, 0);
    }
    EXPECT_GT(stats.counterValue("lsq.deferrals"), 0u);
    // Once everything is final, the last reply carries the correct
    // final value (youngest older store = block 6).
    EXPECT_EQ(lastReply().value, 106u);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, BlockMemFinalRequiresEverything)
{
    map(1);
    EXPECT_FALSE(lsq->blockMemFinal(1)); // nothing arrived
    sendLoad(0, 1, 0x100, ValState::Final);
    EXPECT_FALSE(lsq->blockMemFinal(1)); // store missing
    sendStore(1, 1, 0x200, 9);
    EXPECT_TRUE(lsq->blockMemFinal(1));
}

TEST_F(LsqTest, CommitDrainsStoresToMemory)
{
    map(1);
    sendLoad(0, 1, 0x100, ValState::Final);
    sendStore(1, 1, 0x300, 1234);
    lsq->commitBlock(10, 1);
    EXPECT_EQ(memory.read(0x300, 8), 1234u);
    EXPECT_EQ(lsq->numBlocks(), 0u);
}

TEST_F(LsqTest, FlushDropsBlocksAndStaleMessages)
{
    map(1);
    map(2);
    lsq->flushFrom(2);
    EXPECT_EQ(lsq->numBlocks(), 1u);
    // Stale messages for the flushed block are ignored.
    sendLoad(5, 2, 0x100);
    EXPECT_TRUE(replies.empty());
}

TEST_F(LsqTest, StaleWavesAreDropped)
{
    memory.write(0x100, 8, 7);
    memory.write(0x200, 8, 9);
    map(1);
    sendLoad(0, 1, 0x200, ValState::Spec, /*wave=*/5);
    EXPECT_EQ(lastReply().value, 9u);
    // A reordered older request must not roll the address back.
    sendLoad(1, 1, 0x100, ValState::Spec, /*wave=*/3);
    EXPECT_EQ(replies.size(), 1u);
}

TEST_F(LsqFlushTest, ViolationRequestsFlush)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].loadSeq, 2u);
    EXPECT_EQ(violations[0].storeSeq, 1u);
    // Flush recovery: the LSQ does not resend.
    EXPECT_EQ(replies.size(), 1u);
}

TEST_F(LsqFlushTest, AddressOverlapAloneViolatesUnderFlush)
{
    memory.write(0x100, 8, 99);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99); // same value, still a violation
    EXPECT_EQ(violations.size(), 1u);
}

TEST_F(LsqFlushTest, RepliesAreAlwaysFinalUnderFlush)
{
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Spec);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqFlushTest, ReplayHoldForcesConservativeRetry)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100);
    sendStore(3, 1, 0x100, 99); // violation -> flush requested
    ASSERT_EQ(violations.size(), 1u);
    // The LSQ squashed the violating block itself.
    EXPECT_EQ(lsq->numBlocks(), 1u);
    replies.clear();

    // An older block with an unresolved store re-enters the window,
    // then the violating load's block is refetched at the same
    // architectural index (4 -> older, 5 -> the replayed instance).
    lsq->mapBlock(4, 4, 0, prog->block(0));
    lsq->mapBlock(5, 2, 0, prog->block(0)); // archIdx 2 again
    // The one-shot replay hold makes the load wait for block 4's
    // unresolved store even under the blind policy.
    lsq->loadRequest(10, 5, 0, 0x100, ValState::Final, 1, 0);
    EXPECT_TRUE(replies.empty());
    EXPECT_GT(stats.counterValue("lsq.replay_waits"), 0u);
    // Resolving the older store releases the hold.
    lsq->storeResolve(12, 4, 1, 0x800, 1, ValState::Final,
                      ValState::Final, 1, 0);
    ASSERT_FALSE(replies.empty());
    EXPECT_EQ(lastReply().value, 99u); // forwarded from block 1
}

TEST_F(LsqConservativeTest, LoadsWaitForOlderStores)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    sendLoad(0, 2, 0x100, ValState::Final);
    EXPECT_TRUE(replies.empty()); // block 1's store unresolved
    EXPECT_GT(stats.counterValue("lsq.policy_holds"), 0u);
    sendStore(3, 1, 0x500, 1); // resolve releases the hold
    ASSERT_FALSE(replies.empty());
    EXPECT_EQ(lastReply().value, 5u);
    EXPECT_EQ(lsq->violations(), 0u);
}


// ---------------------------------------------------------------------
// Flat storage: ring, word index, frontier, program order.

TEST_F(LsqTest, SeqGapsAfterFlushThenFrameReuse)
{
    memory.write(0x100, 8, 5);
    for (DynBlockSeq s = 1; s <= kFrames; ++s)
        map(s);
    EXPECT_PANIC(map(kFrames + 1), "LSQ window full");
    lsq->flushFrom(10); // 9 blocks left; seqs 10..16 never come back
    EXPECT_EQ(lsq->numBlocks(), 9u);
    map(20);
    map(21);
    sendStore(0, 20, 0x100, 77);
    sendLoad(1, 21, 0x100, ValState::Final);
    EXPECT_EQ(lastReply().value, 77u); // forwarded across the gap
    sendLoad(2, 12, 0x100); // a flushed seq: stale, dropped
    EXPECT_EQ(replies.size(), 1u);
    sendLoad(2, 20, 0x600, ValState::Final);
    sendStore(2, 21, 0x700, 1);

    // Resolve and commit everything; the ring head then wraps while
    // a full window of new blocks maps into the reused frames.
    for (DynBlockSeq s = 1; s <= 9; ++s) {
        sendStore(3, s, 0x800 + 8 * s, s);
        sendLoad(3, s, 0x400, ValState::Final);
    }
    for (DynBlockSeq s : {1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 21})
        lsq->commitBlock(10, s);
    EXPECT_EQ(lsq->numBlocks(), 0u);
    EXPECT_EQ(memory.read(0x100, 8), 77u);
    for (DynBlockSeq s = 30; s < 30 + kFrames; ++s)
        map(s);
    sendStore(20, 30, 0x100, 99);
    sendLoad(21, 30 + kFrames - 1, 0x100, ValState::Spec);
    EXPECT_EQ(lastReply().value, 99u);
}

TEST_F(LsqFlushTest, ViolationFlushesBlocksStillInTheHitList)
{
    memory.write(0x100, 8, 5);
    map(1);
    map(2);
    map(3);
    sendLoad(0, 2, 0x100);
    sendLoad(0, 3, 0x100);
    // Both younger loads are hit; the first violation squashes
    // blocks 2 and 3, so the second hit must be dropped, not
    // reported or touched.
    sendStore(3, 1, 0x100, 99);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].loadSeq, 2u);
    EXPECT_EQ(lsq->violations(), 1u);
    EXPECT_EQ(lsq->numBlocks(), 1u);
    // The refetched blocks reuse the frames and the index is clean:
    // only block 1's store is on the word.
    map(4);
    sendLoad(5, 4, 0x100);
    EXPECT_EQ(lastReply().value, 99u);
    sendStore(6, 4, 0x100, 7); // younger than the load: no hit
    EXPECT_EQ(violations.size(), 1u);
}

TEST_F(LsqTest, StraddlingAccessesMergeBytesAcrossIndexWords)
{
    memory.write(0x108, 8, 0xEEEEEEEEEEEEEEEEull);
    memory.write(0x110, 8, 0xEEEEEEEEEEEEEEEEull);
    map(1);
    map(2);
    map(3);
    // Block 3's load [0x10c, 0x114) spans words 0x108 and 0x110 and
    // performs first, reading memory.
    lsq->loadRequest(0, 3, 0, 0x10c, ValState::Final, 1, 0);
    EXPECT_EQ(lastReply().value, 0xEEEEEEEEEEEEEEEEull);
    // An older store lands on the load's second word only: the load
    // is found through that word and re-sent with merged bytes.
    sendStore(1, 1, 0x110, 0x8877665544332211ull, ValState::Spec,
              ValState::Final);
    EXPECT_EQ(lastReply().value, 0x44332211EEEEEEEEull);
    // Block 2's store straddles [0x106, 0x10e): the load takes its
    // upper two bytes on the first word.
    sendStore(2, 2, 0x106, 0x8877665544332211ull);
    EXPECT_EQ(lastReply().value, 0x44332211EEEE8877ull);
    // Block 1's store moves off the load (Spec address): the old
    // word still finds the load, whose bytes revert to memory.
    sendStore(3, 1, 0x200, 0x8877665544332211ull, ValState::Final,
              ValState::Final, 2);
    EXPECT_EQ(lastReply().value, 0xEEEEEEEEEEEE8877ull);
    EXPECT_EQ(lastReply().state, ValState::Final);
}

TEST_F(LsqTest, SweepStopsAtTheFinalityFrontier)
{
    memory.write(0x100, 8, 7);
    map(1);
    map(2);
    map(3);
    sendLoad(0, 2, 0x100, ValState::Final); // older than the frontier
    sendLoad(0, 3, 0x100, ValState::Final); // younger than it
    ASSERT_EQ(replies.size(), 2u);
    // Block 2's store resolves with a Spec address: it becomes the
    // frontier (block 1's store is still unresolved, so far older).
    sendStore(1, 2, 0x900, 1, ValState::Spec, ValState::Final);
    // Block 1's store resolves Final off both loads: block 2's load
    // finalises; block 3's stays Spec behind the frontier.
    std::size_t before = replies.size();
    sendStore(2, 1, 0x800, 1);
    ASSERT_EQ(replies.size(), before + 1);
    EXPECT_EQ(replies.back().seq, 2u);
    EXPECT_EQ(replies.back().state, ValState::Final);
    EXPECT_TRUE(replies.back().statusOnly);
    EXPECT_FALSE(lsq->blockMemFinal(3));
    // The frontier store's address turns Final: the sweep upgrades
    // block 3's load.
    sendStore(3, 2, 0x900, 1, ValState::Final, ValState::Final, 2);
    EXPECT_EQ(replies.back().seq, 3u);
    EXPECT_EQ(replies.back().state, ValState::Final);
    EXPECT_EQ(replies.back().value, 7u);
}

/** A blind policy that records each query's older-unresolved list. */
class RecordingPolicy : public pred::DependencePredictor
{
  public:
    bool
    loadMustWait(const pred::LoadQuery &q) override
    {
        older.clear();
        q.older.anyOf([this](const pred::UnresolvedStore &u) {
            older.push_back(u);
            return false;
        });
        return false;
    }
    const char *name() const override { return "recording"; }

    std::vector<pred::UnresolvedStore> older;
};

TEST(LsqOrder, OlderUnresolvedIsInProgramOrderAcrossBlocks)
{
    StatSet stats("t");
    mem::SparseMemory memory;
    mem::Hierarchy hier(mem::HierarchyParams{}, stats);
    RecordingPolicy policy;
    LoadStoreQueue lsq(LsqParams{}, &hier, &memory, &policy, stats, 4);

    compiler::ProgramBuilder pb("t");
    auto &one = pb.newBlock("ld-st"); // LSID 0 load, 1 store
    compiler::Val a = one.readReg(1);
    one.store(a, one.load(a, 8), 8);
    one.branchHalt();
    auto &three = pb.newBlock("st-st-st-ld"); // LSIDs 0-2 stores, 3 load
    compiler::Val b = three.readReg(1);
    for (int i = 0; i < 3; ++i)
        three.store(b, b, 8, 8 * i);
    three.writeReg(2, three.load(b, 8));
    three.branchHalt();
    isa::Program prog = pb.build();

    // Advance the ring head so the window wraps around the array.
    for (DynBlockSeq s = 1; s <= 3; ++s) {
        lsq.mapBlock(s, s, 0, prog.block(0));
        lsq.storeResolve(0, s, 1, 0x900, 0, ValState::Final,
                         ValState::Final, 1, 0);
        lsq.loadRequest(0, s, 0, 0x100, ValState::Final, 1, 0);
        lsq.commitBlock(1, s);
    }
    lsq.mapBlock(5, 5, 0, prog.block(0));
    lsq.mapBlock(6, 6, 1, prog.block(1));
    lsq.mapBlock(8, 8, 0, prog.block(0));
    lsq.storeResolve(2, 6, 1, 0x300, 0, ValState::Final,
                     ValState::Final, 1, 0);
    lsq.loadRequest(3, 8, 0, 0x100, ValState::Final, 1, 0);

    std::vector<std::pair<DynBlockSeq, Lsid>> got;
    for (const pred::UnresolvedStore &u : policy.older)
        got.emplace_back(u.seq, u.lsid);
    std::vector<std::pair<DynBlockSeq, Lsid>> want = {
        {5, 1}, {6, 0}, {6, 2}};
    EXPECT_EQ(got, want);
    // A load's own block contributes only older LSIDs.
    lsq.loadRequest(4, 6, 3, 0x100, ValState::Final, 1, 0);
    got.clear();
    for (const pred::UnresolvedStore &u : policy.older)
        got.emplace_back(u.seq, u.lsid);
    want = {{5, 1}, {6, 0}, {6, 2}};
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace edge::lsq
