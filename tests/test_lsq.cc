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
 * A seeded differential test checks every reply of random store and
 * load streams against a from-scratch restatement of the finality
 * rule and the reply logic.
 */

#include <gtest/gtest.h>

#include "panic_check.hh"

#include "common/rng.hh"
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

// ---------------------------------------------------------------------------
// The commit wave against a from-scratch reference.
// ---------------------------------------------------------------------------

/**
 * The LSQ's reply logic under DSRE with a blind policy, restated over
 * a plain list of in-flight blocks: no address index, no masks, no
 * frontier, no incremental state. A load is final when its address
 * is Final, every older store is resolved with a Final address and
 * every older store overlapping it has Final data.
 */
class RefWindow
{
  public:
    struct Op
    {
        bool store = false;
        unsigned bytes = 8;
        bool known = false; ///< store resolved / load address arrived
        Addr addr = 0;
        Word data = 0;
        bool addrFinal = false;
        bool dataFinal = false; ///< stores
        // Loads.
        bool performed = false;
        Word lastValue = 0;
        bool lastFinal = false;
        unsigned resends = 0;
        bool deferred = false;
    };
    struct Blk
    {
        DynBlockSeq seq = 0;
        std::vector<Op> ops;
    };
    /** (seq, LSID, value, Final?) of one reply. */
    using Reply = std::tuple<DynBlockSeq, Lsid, Word, bool>;

    RefWindow(const mem::SparseMemory &memory, unsigned budget)
        : _mem(memory), _budget(budget)
    {
    }

    std::vector<Blk> blocks;

    static bool
    overlap(Addr a, unsigned n, Addr b, unsigned m)
    {
        return a < b + m && b < a + n;
    }

    /** Memory, then every older resolved store, oldest first. */
    Word
    value(std::size_t bi, Lsid l) const
    {
        const Op &ld = blocks[bi].ops[l];
        Word v = _mem.read(ld.addr, ld.bytes);
        forOlderStores(bi, l, [&](const Op &st) {
            if (!st.known)
                return;
            for (unsigned i = 0; i < ld.bytes; ++i) {
                Addr a = ld.addr + i;
                if (a < st.addr || a >= st.addr + st.bytes)
                    continue;
                Word byte = (st.data >> (8 * (a - st.addr))) & 0xff;
                v = (v & ~(Word{0xff} << (8 * i))) | byte << (8 * i);
            }
        });
        return v;
    }

    bool
    isFinal(std::size_t bi, Lsid l) const
    {
        const Op &ld = blocks[bi].ops[l];
        bool fin = ld.addrFinal;
        forOlderStores(bi, l, [&](const Op &st) {
            fin = fin && st.known && st.addrFinal &&
                  (st.dataFinal ||
                   !overlap(st.addr, st.bytes, ld.addr, ld.bytes));
        });
        return fin;
    }

    /** Send (or resend) the load's current value and finality. */
    void
    perform(std::size_t bi, Lsid l, std::vector<Reply> &out)
    {
        Op &ld = blocks[bi].ops[l];
        ld.performed = true;
        ld.lastValue = value(bi, l);
        ld.lastFinal = isFinal(bi, l);
        out.emplace_back(blocks[bi].seq, l, ld.lastValue, ld.lastFinal);
    }

    void
    loadRequest(std::size_t bi, Lsid l, Addr addr, bool addr_final,
                std::vector<Reply> &out)
    {
        Op &ld = blocks[bi].ops[l];
        bool changed = ld.known && ld.addr != addr;
        ld.known = true;
        ld.addr = addr;
        ld.addrFinal = addr_final || (!changed && ld.addrFinal);
        if (!ld.performed) {
            perform(bi, l, out);
            return;
        }
        Word v = value(bi, l);
        bool fin = isFinal(bi, l);
        if (v != ld.lastValue) {
            if (fin) {
                ld.deferred = false;
            } else if (_budget != 0 && ld.resends >= _budget) {
                ld.deferred = true;
                return;
            } else {
                ++ld.resends;
            }
            perform(bi, l, out);
        } else if (fin && !ld.lastFinal) {
            ld.deferred = false;
            perform(bi, l, out);
        }
    }

    void
    storeResolve(std::size_t bi, Lsid l, Addr addr, Word data,
                 bool addr_final, bool data_final, std::vector<Reply> &out)
    {
        Op &st = blocks[bi].ops[l];
        bool had_old = st.known;
        Addr old_addr = st.addr;
        bool addr_changed = had_old && st.addr != addr;
        bool data_changed = had_old && st.data != data;
        bool improved = (addr_final && !st.addrFinal) ||
                        (data_final && !st.dataFinal);
        if (had_old && !addr_changed && !data_changed && !improved)
            return; // pure duplicate: no replies, no sweep
        st.known = true;
        st.addr = addr;
        st.data = data;
        st.addrFinal = addr_final || (!addr_changed && had_old && st.addrFinal);
        st.dataFinal = data_final || (!data_changed && had_old && st.dataFinal);

        // Younger performed loads on the old or new range whose value
        // changed are re-sent, oldest first.
        if (!had_old || addr_changed || data_changed) {
            forYoungerLoads(bi, l, [&](std::size_t lb, Lsid ll, Op &ld) {
                bool on = overlap(addr, st.bytes, ld.addr, ld.bytes) ||
                          (had_old &&
                           overlap(old_addr, st.bytes, ld.addr, ld.bytes));
                if (!on || value(lb, ll) == ld.lastValue)
                    return;
                if (_budget != 0 && ld.resends >= _budget) {
                    ld.deferred = true;
                    return;
                }
                ++ld.resends;
                perform(lb, ll, out);
            });
        }
        // The commit wave: every Spec load now final, oldest first.
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            for (Lsid i = 0; i < blocks[b].ops.size(); ++i) {
                Op &ld = blocks[b].ops[i];
                if (ld.store || !ld.performed || ld.lastFinal ||
                    !isFinal(b, i))
                    continue;
                ld.deferred = false;
                perform(b, i, out);
            }
        }
    }

    bool
    oldestDone() const
    {
        for (const Op &op : blocks.front().ops) {
            if (op.store ? !(op.known && op.addrFinal && op.dataFinal)
                         : !(op.performed && op.lastFinal))
                return false;
        }
        return true;
    }

  private:
    template <typename F>
    void
    forOlderStores(std::size_t bi, Lsid l, F &&f) const
    {
        for (std::size_t b = 0; b <= bi; ++b) {
            std::size_t end = b == bi ? l : blocks[b].ops.size();
            for (std::size_t i = 0; i < end; ++i)
                if (blocks[b].ops[i].store)
                    f(blocks[b].ops[i]);
        }
    }

    template <typename F>
    void
    forYoungerLoads(std::size_t bi, Lsid l, F &&f)
    {
        for (std::size_t b = bi; b < blocks.size(); ++b) {
            for (Lsid i = b == bi ? l + 1 : 0; i < blocks[b].ops.size();
                 ++i) {
                Op &op = blocks[b].ops[i];
                if (!op.store && op.performed)
                    f(b, i, op);
            }
        }
    }

    const mem::SparseMemory &_mem;
    unsigned _budget;
};

/** What one stream exercised. */
struct StreamCounts
{
    std::uint64_t commits = 0;
    std::uint64_t flushes = 0;
    std::uint64_t deferrals = 0;
};

/** Seeded store/load/commit/flush streams; `check` sees each event's
 *  replies next to the reference's. */
template <typename Check>
StreamCounts
runFinalityStream(std::uint64_t seed, unsigned events, Check &&check)
{
    StreamCounts counts;
    StatSet stats("t");
    mem::SparseMemory memory;
    mem::Hierarchy hier(mem::HierarchyParams{}, stats);
    auto policy =
        pred::makeDependencePredictor(pred::DepPolicy::Blind, nullptr, stats);
    LsqParams params;
    constexpr unsigned kWindow = 4; // small, so the ring wraps often
    LoadStoreQueue lsq(params, &hier, &memory, policy.get(), stats,
                       kWindow);
    RefWindow ref(memory, params.maxResendsPerLoad);

    // Two block shapes; 4-byte steps make 8-byte accesses straddle.
    compiler::ProgramBuilder pb("t");
    auto &a = pb.newBlock("ld-st-ld-st-ld");
    compiler::Val ra = a.readReg(1);
    compiler::Val x = a.load(ra, 8);
    a.store(ra, x, 8);
    compiler::Val y = a.load(ra, 4, 4);
    a.store(ra, y, 4, 8);
    a.writeReg(2, a.load(ra, 8, 16));
    a.branchHalt();
    auto &b = pb.newBlock("st-ld-st-ld");
    compiler::Val rb = b.readReg(1);
    b.store(rb, rb, 8);
    compiler::Val z = b.load(rb, 8);
    b.store(rb, z, 4, 8);
    b.writeReg(2, b.load(rb, 4, 12));
    b.branchHalt();
    isa::Program prog = pb.build();
    std::vector<std::vector<RefWindow::Op>> shapes;
    for (BlockId id = 0; id < 2; ++id) {
        std::vector<RefWindow::Op> ops;
        for (const isa::Instruction &in : prog.block(id).insts()) {
            const isa::OpInfo &info = isa::opInfo(in.op);
            if (!info.isLoad && !info.isStore)
                continue;
            if (ops.size() <= in.lsid)
                ops.resize(in.lsid + 1);
            ops[in.lsid].store = info.isStore;
            ops[in.lsid].bytes = info.accessBytes;
        }
        shapes.push_back(ops);
    }
    for (Addr w = 0; w < 12; ++w)
        memory.write(0x1000 + 8 * w, 8, 0x0101010101010101ull * (w + 1));

    Rng rng(seed);
    DynBlockSeq next_seq = 1;
    std::uint32_t wave = 0;
    Cycle now = 0;
    std::vector<LoadReply> &out = lsq.replies();
    for (unsigned ev = 0; ev < events; ++ev) {
        ++now;
        std::vector<RefWindow::Reply> want;
        auto &blocks = ref.blocks;
        unsigned pick = rng.below(100);
        if (blocks.empty() || (blocks.size() < kWindow && pick < 15)) {
            BlockId id = rng.below(2);
            lsq.mapBlock(next_seq, next_seq, id, prog.block(id));
            blocks.push_back({next_seq, shapes[id]});
            next_seq += 1 + (rng.below(4) == 0); // gaps, as after flushes
        } else if (pick >= 15 && pick < 17 && blocks.size() > 1) {
            std::size_t keep = 1 + rng.below(blocks.size() - 1);
            lsq.flushFrom(blocks[keep].seq);
            blocks.resize(keep);
            ++counts.flushes;
        } else if (pick < 40 && ref.oldestDone()) {
            EXPECT_TRUE(lsq.blockMemFinal(blocks.front().seq));
            lsq.commitBlock(now, blocks.front().seq);
            blocks.erase(blocks.begin());
            ++counts.commits;
        } else {
            std::size_t bi = rng.below(blocks.size());
            auto l = static_cast<Lsid>(rng.below(blocks[bi].ops.size()));
            RefWindow::Op &op = blocks[bi].ops[l];
            // A Final address or Final data never changes.
            Addr addr = op.known && op.addrFinal
                            ? op.addr
                            : 0x1000 + 4 * rng.below(20);
            bool addr_final = op.addrFinal || rng.below(3) == 0;
            if (op.store) {
                Word data = op.known && op.dataFinal ? op.data
                                                     : rng.below(4) << 8;
                bool data_final = op.dataFinal || rng.below(3) == 0;
                lsq.storeResolve(now, blocks[bi].seq, l, addr, data,
                                 addr_final ? ValState::Final
                                            : ValState::Spec,
                                 data_final ? ValState::Final
                                            : ValState::Spec,
                                 ++wave, 0);
                ref.storeResolve(bi, l, addr, data, addr_final, data_final,
                                 want);
            } else {
                lsq.loadRequest(now, blocks[bi].seq, l, addr,
                                addr_final ? ValState::Final
                                           : ValState::Spec,
                                ++wave, 0);
                ref.loadRequest(bi, l, addr, addr_final, want);
            }
        }
        std::vector<RefWindow::Reply> got;
        for (const LoadReply &r : out)
            got.emplace_back(r.seq, r.lsid, r.value,
                             r.state == ValState::Final);
        out.clear();
        check(ev, got, want);
        if (::testing::Test::HasFatalFailure())
            break;
    }
    counts.deferrals = stats.counterValue("lsq.deferrals");
    return counts;
}

TEST(LsqFinality, RepliesMatchAFromScratchReference)
{
    std::uint64_t replies = 0, finals = 0;
    StreamCounts all;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        StreamCounts c = runFinalityStream(
            seed, 3000, [&](unsigned ev, const auto &got, const auto &want) {
                ASSERT_EQ(got, want) << "seed " << seed << " event " << ev;
                for (const RefWindow::Reply &r : want)
                    finals += std::get<3>(r);
                replies += want.size();
            });
        if (HasFatalFailure())
            return;
        all.commits += c.commits;
        all.flushes += c.flushes;
        all.deferrals += c.deferrals;
    }
    // The streams exercise the whole wave: many replies, many of them
    // Final, deferred resends, and a ring that wraps and flushes.
    EXPECT_GT(replies, 10000u);
    EXPECT_GT(finals, 2000u);
    EXPECT_GT(all.commits, 1000u);
    EXPECT_GT(all.flushes, 100u);
    EXPECT_GT(all.deferrals, 100u);
}

} // namespace
} // namespace edge::lsq
