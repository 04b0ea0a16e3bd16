/**
 * @file
 * Unit tests for the hyperblock construction pipeline: the builder
 * DSL (DCE, fanout trees, read merging, LSID assignment, exit
 * handling), the grid placer, and the functional reference executor
 * (sequential memory semantics, block-atomic register commit,
 * deadlock detection).
 */

#include <gtest/gtest.h>

#include "panic_check.hh"

#include "compiler/builder.hh"
#include "compiler/placement.hh"
#include "compiler/ref_executor.hh"

namespace edge::compiler {
namespace {

using isa::Opcode;
using isa::TargetKind;

TEST(Builder, MinimalProgramValidates)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    b.writeReg(1, b.imm(42));
    b.branchHalt();
    isa::Program p = pb.build();
    EXPECT_EQ(p.numBlocks(), 1u);
    std::string why;
    EXPECT_TRUE(p.validate(&why)) << why;
}

TEST(Builder, DeadCodeIsEliminated)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val live = b.imm(1);
    b.add(b.imm(2), b.imm(3)); // dead: result unused
    b.writeReg(1, live);
    b.branchHalt();
    isa::Program p = pb.build();
    // movi(1) + bro: dead add and its immediates are gone.
    EXPECT_EQ(p.block(0).insts().size(), 2u);
}

TEST(Builder, StoresAreNeverDead)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    b.store(b.imm(0x100), b.imm(9), 8);
    b.branchHalt();
    isa::Program p = pb.build();
    EXPECT_EQ(p.block(0).numStores(), 1u);
}

TEST(Builder, FanoutTreesRespectTargetLimit)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val v = b.imm(7);
    // 9 consumers of one value forces MOV-tree insertion.
    compiler::Val acc = b.addi(v, 0);
    for (int i = 0; i < 8; ++i)
        acc = b.add(acc, v);
    b.writeReg(1, acc);
    b.branchHalt();
    isa::Program p = pb.build();
    std::string why;
    ASSERT_TRUE(p.validate(&why)) << why;
    unsigned movs = 0;
    for (const auto &in : p.block(0).insts())
        movs += in.op == Opcode::MOV;
    EXPECT_GE(movs, 4u); // ceil tree for 9 consumers
}

TEST(Builder, FanoutPreservesSemantics)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val v = b.imm(5);
    compiler::Val sum = b.imm(0);
    for (int i = 0; i < 10; ++i)
        sum = b.add(sum, v);
    b.writeReg(1, sum);
    b.branchHalt();
    RefExecutor ref(pb.build());
    ref.run(10);
    EXPECT_EQ(ref.regs()[1], 50u);
}

TEST(Builder, RegisterReadsAreMerged)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val a = b.readReg(3);
    compiler::Val c = b.readReg(3); // same register
    b.writeReg(1, b.add(a, c));
    b.branchHalt();
    isa::Program p = pb.build();
    EXPECT_EQ(p.block(0).reads().size(), 1u);
}

TEST(Builder, LastRegisterWriteWins)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    b.writeReg(1, b.imm(10));
    b.writeReg(1, b.imm(20));
    b.branchHalt();
    RefExecutor ref(pb.build());
    ref.run(10);
    EXPECT_EQ(ref.regs()[1], 20u);
}

TEST(Builder, LsidsFollowEmissionOrder)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val addr = b.imm(0x100);
    compiler::Val x = b.load(addr, 8);     // LSID 0
    b.store(addr, b.addi(x, 1), 8);        // LSID 1
    compiler::Val y = b.load(addr, 8);     // LSID 2
    b.writeReg(1, y);
    b.branchHalt();
    isa::Program p = pb.build();
    std::vector<Lsid> lsids;
    for (const auto &in : p.block(0).insts())
        if (isa::isMem(in.op))
            lsids.push_back(in.lsid);
    EXPECT_EQ(lsids, (std::vector<Lsid>{0, 1, 2}));
}

TEST(Builder, ExitsAreDeduplicated)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("a");
    unsigned e1 = b.addExit("b");
    unsigned e2 = b.addExit("b");
    EXPECT_EQ(e1, e2);
    b.branch(b.imm(0));
    auto &b2 = pb.newBlock("b");
    b2.branchHalt();
    isa::Program p = pb.build();
    EXPECT_EQ(p.block(0).exits().size(), 1u);
    EXPECT_EQ(p.block(0).exits()[0], p.blockByName("b"));
}

TEST(Builder, BranchCondExitArrangement)
{
    // cond != 0 must reach "yes"; cond == 0 must reach "no".
    for (int cond : {0, 1}) {
        ProgramBuilder pb("t");
        auto &b = pb.newBlock("start");
        b.branchCond(b.imm(cond), "yes", "no");
        auto &y = pb.newBlock("yes");
        y.writeReg(1, y.imm(111));
        y.branchHalt();
        auto &n = pb.newBlock("no");
        n.writeReg(1, n.imm(222));
        n.branchHalt();
        pb.setEntry("start");
        RefExecutor ref(pb.build());
        ref.run(10);
        EXPECT_EQ(ref.regs()[1], cond ? 111u : 222u);
    }
}

TEST(Builder, ValOwnershipIsChecked)
{
    ProgramBuilder pb("t");
    auto &a = pb.newBlock("a");
    auto &b = pb.newBlock("b");
    compiler::Val v = a.imm(1);
    EXPECT_PANIC((void)b.addi(v, 1), "different BlockBuilder");
}

TEST(Builder, SecondBranchIsRejected)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("a");
    b.branchHalt();
    EXPECT_PANIC(b.branchHalt(), "second branch");
}

TEST(Builder, UnknownExitNameIsRejected)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("a");
    b.branchTo("nowhere");
    EXPECT_PANIC((void)pb.build(), "unknown block");
}

TEST(Builder, CapacityOverflowIsRejected)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("a");
    compiler::Val acc = b.imm(0);
    for (int i = 0; i < 200; ++i)
        acc = b.addi(acc, 1);
    b.writeReg(1, acc);
    b.branchHalt();
    EXPECT_PANIC((void)pb.build(), "split the block");
}

// ---------------------------------------------------------------------------
// Reference executor.
// ---------------------------------------------------------------------------

TEST(RefExecutor, SequentialMemorySemantics)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val addr = b.imm(0x100);
    compiler::Val x = b.load(addr, 8);      // reads init value 5
    b.store(addr, b.addi(x, 1), 8);         // writes 6
    compiler::Val y = b.load(addr, 8);      // must see 6
    b.writeReg(1, y);
    b.branchHalt();
    pb.initDataWords(0x100, {5});
    RefExecutor ref(pb.build());
    auto r = ref.run(10);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(ref.regs()[1], 6u);
    EXPECT_EQ(ref.memory().read(0x100, 8), 6u);
}

TEST(RefExecutor, SubWordAccessesMerge)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    b.store(b.imm(0x200), b.imm(0xAB), 1, 3); // byte at 0x203
    b.writeReg(1, b.load(b.imm(0x200), 8));
    b.branchHalt();
    pb.initDataWords(0x200, {0x1111111111111111ull});
    RefExecutor ref(pb.build());
    ref.run(10);
    EXPECT_EQ(ref.regs()[1], 0x11111111AB111111ull);
}

TEST(RefExecutor, MisalignedLoadsStraddleWords)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val base = b.imm(0x300);
    b.writeReg(1, b.load(base, 4, 6)); // bytes 6..9
    b.writeReg(2, b.load(base, 8, 3)); // bytes 3..10
    b.branchHalt();
    pb.initDataWords(0x300,
                     {0x0807060504030201ull, 0x100f0e0d0c0b0a09ull});
    RefExecutor ref(pb.build());
    EXPECT_TRUE(ref.run(10).halted);
    EXPECT_EQ(ref.regs()[1], 0x0a090807u);
    EXPECT_EQ(ref.regs()[2], 0x0b0a090807060504ull);
}

TEST(RefExecutor, PartialWidthStoreToLoadForwarding)
{
    // A narrow store must be visible to wider (and narrower) loads
    // later in the same block.
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val base = b.imm(0x400);
    b.store(base, b.imm(0xBEEF), 2, 2); // halfword at 0x402
    b.writeReg(1, b.load(base, 8));     // whole word sees the patch
    b.writeReg(2, b.load(base, 1, 3));  // one byte of the patch
    b.branchHalt();
    pb.initDataWords(0x400, {0xffffffffffffffffull});
    RefExecutor ref(pb.build());
    EXPECT_TRUE(ref.run(10).halted);
    EXPECT_EQ(ref.regs()[1], 0xffffffffbeefffffull);
    EXPECT_EQ(ref.regs()[2], 0xbeu);
}

TEST(RefExecutor, SameAddressMixedWidthsInLsidOrder)
{
    // Loads and stores to one address interleave strictly in LSID
    // order within a block, whatever their widths.
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val addr = b.imm(0x500);
    b.writeReg(1, b.load(addr, 8));  // lsid 0: pristine word
    b.store(addr, b.imm(0xAA), 1);   // lsid 1: patch low byte
    b.writeReg(2, b.load(addr, 2));  // lsid 2: sees the byte
    b.store(addr, b.imm(0x9988), 2); // lsid 3: patch halfword
    b.writeReg(3, b.load(addr, 8));  // lsid 4: sees both stores
    b.branchHalt();
    pb.initDataWords(0x500, {0x1122334455667788ull});
    RefExecutor ref(pb.build());
    EXPECT_TRUE(ref.run(10).halted);
    EXPECT_EQ(ref.regs()[1], 0x1122334455667788ull);
    EXPECT_EQ(ref.regs()[2], 0x77aau);
    EXPECT_EQ(ref.regs()[3], 0x1122334455669988ull);
}

TEST(RefExecutor, BlockAtomicRegisterCommit)
{
    // A block's reads must see pre-block register values even when
    // the same register is written in the block.
    ProgramBuilder pb("t");
    pb.setInitReg(1, 100);
    auto &b = pb.newBlock("only");
    compiler::Val old = b.readReg(1);
    b.writeReg(1, b.addi(old, 1));
    b.writeReg(2, old); // must capture 100, not 101
    b.branchHalt();
    RefExecutor ref(pb.build());
    ref.run(10);
    EXPECT_EQ(ref.regs()[1], 101u);
    EXPECT_EQ(ref.regs()[2], 100u);
}

TEST(RefExecutor, FollowsDataDependentExits)
{
    ProgramBuilder pb("t");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, 5);
    auto &loop = pb.newBlock("loop");
    compiler::Val i = loop.readReg(1);
    compiler::Val i2 = loop.addi(i, 1);
    loop.writeReg(1, i2);
    loop.branchCond(loop.tlt(i2, loop.readReg(2)), "loop", "done");
    auto &done = pb.newBlock("done");
    done.branchHalt();
    pb.setEntry("loop");
    RefExecutor ref(pb.build());
    auto r = ref.run(100);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.dynBlocks, 6u); // 5 loop iterations + done
    EXPECT_EQ(ref.regs()[1], 5u);
}

TEST(RefExecutor, BudgetStopsRunawayPrograms)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("spin");
    b.branchTo("spin");
    pb.setEntry("spin");
    RefExecutor ref(pb.build());
    auto r = ref.run(50);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.dynBlocks, 50u);
}

TEST(RefExecutor, TraceRecordsMemoryOpsInLsidOrder)
{
    ProgramBuilder pb("t");
    auto &b = pb.newBlock("only");
    compiler::Val a1 = b.imm(0x100);
    compiler::Val x = b.load(a1, 8);
    b.store(b.imm(0x108), x, 8);
    b.branchHalt();
    pb.initDataWords(0x100, {77});
    RefExecutor ref(pb.build());
    std::vector<BlockTrace> trace;
    ref.run(10, &trace);
    ASSERT_EQ(trace.size(), 1u);
    ASSERT_EQ(trace[0].memOps.size(), 2u);
    EXPECT_FALSE(trace[0].memOps[0].isStore);
    EXPECT_EQ(trace[0].memOps[0].addr, 0x100u);
    EXPECT_EQ(trace[0].memOps[0].value, 77u);
    EXPECT_TRUE(trace[0].memOps[1].isStore);
    EXPECT_EQ(trace[0].memOps[1].addr, 0x108u);
    EXPECT_EQ(trace[0].memOps[1].value, 77u);
}

TEST(RefExecutor, DetectsMemoryOrderDeadlock)
{
    // Store (LSID 0) whose data depends on a later load (LSID 1):
    // sequential memory semantics cannot execute this block.
    isa::Block blk("bad");
    isa::Instruction addr1;
    addr1.op = Opcode::MOVI;
    addr1.imm = 0x100;
    addr1.targets[0] = isa::Target::toOperand(2, 0); // st addr
    isa::Instruction addr2;
    addr2.op = Opcode::MOVI;
    addr2.imm = 0x200;
    addr2.targets[0] = isa::Target::toOperand(3, 0); // ld addr
    isa::Instruction st;
    st.op = Opcode::STD;
    st.lsid = 0;
    isa::Instruction ld;
    ld.op = Opcode::LDD;
    ld.lsid = 1;
    ld.targets[0] = isa::Target::toOperand(2, 1); // feeds st data!
    isa::Instruction br;
    br.op = Opcode::BRO;
    blk.insts() = {addr1, addr2, st, ld, br};
    blk.exits().push_back(isa::kHaltBlock);

    isa::Program p("bad");
    p.addBlock(blk);
    std::string why;
    ASSERT_TRUE(p.validate(&why)) << why; // structurally fine
    RefExecutor ref(p);
    EXPECT_PANIC(ref.run(1), "deadlock");
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

isa::Program
chainProgram(unsigned length)
{
    ProgramBuilder pb("chain");
    auto &b = pb.newBlock("only");
    compiler::Val v = b.imm(1);
    for (unsigned i = 0; i < length; ++i)
        v = b.addi(v, 1);
    b.writeReg(1, v);
    b.branchHalt();
    return pb.build();
}

TEST(Placement, RespectsNodeCapacity)
{
    isa::Program p = chainProgram(100);
    GridGeom geom{4, 4, 8};
    Placement pl = placeBlock(p.block(0), geom);
    ASSERT_EQ(pl.nodeOf.size(), p.block(0).insts().size());
    for (unsigned count : pl.perNodeCount)
        EXPECT_LE(count, geom.slotsPerNode);
    for (auto n : pl.nodeOf)
        EXPECT_LT(n, geom.numNodes());
}

TEST(Placement, IsDeterministic)
{
    isa::Program p = chainProgram(60);
    GridGeom geom{4, 4, 8};
    Placement a = placeBlock(p.block(0), geom);
    Placement b = placeBlock(p.block(0), geom);
    EXPECT_EQ(a.nodeOf, b.nodeOf);
}

TEST(Placement, KeepsDependentChainsNearby)
{
    isa::Program p = chainProgram(8);
    GridGeom geom{4, 4, 8};
    Placement pl = placeBlock(p.block(0), geom);
    // Total hop distance along the chain should be small: a greedy
    // placer keeps consumers adjacent to producers.
    const auto &insts = p.block(0).insts();
    unsigned hops = 0;
    for (std::size_t i = 0; i < insts.size(); ++i)
        for (const auto &t : insts[i].targets)
            if (t.kind == TargetKind::Operand)
                hops += gridDistance(geom, pl.nodeOf[i],
                                     pl.nodeOf[t.index]);
    EXPECT_LE(hops, insts.size()); // average < 1 hop per edge
}

TEST(Placement, DecodesRsIndicesNodeMaskAndTargetPositions)
{
    // chainProgram reads no register, so give it a read too.
    ProgramBuilder pb("decode");
    auto &blk = pb.newBlock("only");
    compiler::Val v = blk.readReg(9);
    for (unsigned i = 0; i < 30; ++i)
        v = blk.addi(v, 1);
    blk.writeReg(6, v);
    blk.branchHalt();
    isa::Program p = pb.build();
    const isa::Block &b = p.block(0);
    GridGeom geom{3, 5, 4};
    Placement pl = placeBlock(b, geom);

    // RS indices count each node's slots in slot order.
    std::vector<unsigned> fill(geom.numNodes(), 0);
    std::uint64_t mask = 0;
    for (std::size_t s = 0; s < b.insts().size(); ++s) {
        EXPECT_EQ(pl.localOf[s], fill[pl.nodeOf[s]]++);
        mask |= std::uint64_t{1} << pl.nodeOf[s];
    }
    EXPECT_EQ(pl.nodeMask, mask);

    // Operand targets go to the consumer's node (one row and one
    // column in from the RF row and LSQ column), writes to the
    // register's bank in row 0.
    auto check = [&](const std::array<isa::Target, isa::kMaxTargets> &ts,
                     const Placement::Dests &ds) {
        for (unsigned k = 0; k < isa::kMaxTargets; ++k) {
            if (ts[k].kind == TargetKind::Operand) {
                unsigned n = pl.nodeOf[ts[k].index];
                EXPECT_EQ(ds[k].row, n / geom.cols + 1);
                EXPECT_EQ(ds[k].col, n % geom.cols + 1);
            } else if (ts[k].kind == TargetKind::RegWrite) {
                unsigned reg = b.writes()[ts[k].index].reg;
                EXPECT_EQ(ds[k].row, 0u);
                EXPECT_EQ(ds[k].col, reg % geom.cols + 1);
            }
        }
    };
    ASSERT_EQ(pl.instDest.size(), b.insts().size());
    for (std::size_t s = 0; s < b.insts().size(); ++s)
        check(b.insts()[s].targets, pl.instDest[s]);
    ASSERT_EQ(pl.readDest.size(), b.reads().size());
    ASSERT_FALSE(b.reads().empty());
    for (std::size_t r = 0; r < b.reads().size(); ++r)
        check(b.reads()[r].targets, pl.readDest[r]);
}

TEST(Placement, RejectsUndersizedGrid)
{
    isa::Program p = chainProgram(40);
    GridGeom geom{2, 2, 8}; // capacity 32 < 42 insts
    EXPECT_PANIC((void)placeBlock(p.block(0), geom), "grid too small");
}

TEST(Placement, GridDistanceIsManhattan)
{
    GridGeom geom{4, 4, 8};
    EXPECT_EQ(gridDistance(geom, geom.nodeId(0, 0), geom.nodeId(3, 3)),
              6u);
    EXPECT_EQ(gridDistance(geom, 5, 5), 0u);
}

} // namespace
} // namespace edge::compiler
