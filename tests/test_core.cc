/**
 * @file
 * Unit tests for the core module: reservation-station nodes (wave
 * staleness, re-fire on value change, value-identity squash, commit
 * ports), the register-forwarding unit (subscriptions, waves,
 * commit, flush), and Processor-level integration for control
 * misspeculation and halting.
 */

#include <gtest/gtest.h>

#include "panic_check.hh"

#include "common/rng.hh"
#include "compiler/builder.hh"
#include "core/exec_node.hh"
#include "core/reg_unit.hh"
#include "sim/simulator.hh"

namespace edge::core {
namespace {

using isa::Opcode;
using isa::Target;

class ExecNodeTest : public ::testing::Test
{
  protected:
    ExecNodeTest()
        : stats("t"),
          ns{stats.counter("core.alu_issues", ""),
             stats.counter("core.alu_reexecs", ""),
             stats.counter("core.upgrades", ""),
             stats.counter("core.squashes", ""),
             stats.histogram("core.wave_depth", "")},
          node(params, ns)
    {
    }

    /** Map `add imm -> w0` style instruction at (frame 0, local 0). */
    void
    mapAdd()
    {
        isa::Instruction in;
        in.op = Opcode::ADD;
        in.targets[0] = Target::toWrite(0);
        node.mapInst(0, 0, /*seq=*/1, /*slot=*/0, in);
    }

    CoreParams params;
    StatSet stats;
    NodeStats ns;
    ExecNode node;
    /** The node's outbox; nothing drains it, so it accumulates. */
    std::vector<NodeEvent> &events = node.events();
};

TEST_F(ExecNodeTest, ExecutesWhenAllOperandsArrive)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Final, 1, 0);
    node.tick(0);
    EXPECT_TRUE(events.empty()); // operand 1 missing
    node.deliver(0, 0, 1, 4, ValState::Final, 1, 0);
    node.tick(1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].value, 7u);
    EXPECT_EQ(events[0].state, ValState::Final);
    EXPECT_EQ(events[0].when, 1 + params.latIntAlu);
}

TEST_F(ExecNodeTest, SpecInputsGiveSpecOutput)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Final, 1, 0);
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].state, ValState::Spec);
}

TEST_F(ExecNodeTest, ValueChangeRefiresWithHigherWave)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Spec, 1, 0);
    node.tick(0);
    node.deliver(0, 0, 0, 10, ValState::Spec, 2, 0); // new wave
    node.tick(1);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].value, 14u);
    EXPECT_GT(events[1].wave, events[0].wave);
    EXPECT_EQ(stats.counterValue("core.alu_reexecs"), 1u);
}

TEST_F(ExecNodeTest, StaleWavesAreIgnored)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 5, 0);
    node.deliver(0, 0, 1, 4, ValState::Spec, 1, 0);
    node.tick(0);
    EXPECT_FALSE(node.deliver(0, 0, 0, 99, ValState::Spec, 4, 0));
    node.tick(1);
    EXPECT_EQ(events.size(), 1u); // no re-fire from the stale value
}

TEST_F(ExecNodeTest, IdenticalReExecutionIsSquashed)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Spec, 1, 0);
    node.tick(0);
    // Both operands change so that the sum is unchanged.
    node.deliver(0, 0, 0, 4, ValState::Spec, 2, 0);
    node.deliver(0, 0, 1, 3, ValState::Spec, 2, 0);
    node.tick(1);
    EXPECT_EQ(events.size(), 1u); // re-executed but squashed
    EXPECT_EQ(stats.counterValue("core.squashes"), 1u);
    EXPECT_EQ(stats.counterValue("core.alu_reexecs"), 1u);
}

TEST_F(ExecNodeTest, CommitWaveUpgradeUsesCommitPort)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Final, 1, 0);
    node.tick(0);
    // The Spec operand upgrades with the same value.
    node.deliver(0, 0, 0, 3, ValState::Final, 2, 0);
    node.tick(1);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].state, ValState::Final);
    EXPECT_EQ(events[1].value, 7u);
    EXPECT_TRUE(events[1].statusOnly);
    EXPECT_EQ(stats.counterValue("core.upgrades"), 1u);
    EXPECT_EQ(stats.counterValue("core.alu_issues"), 1u); // no ALU
}

TEST_F(ExecNodeTest, ValueChangeCancelsAPendingUpgrade)
{
    isa::Instruction add;
    add.op = Opcode::ADD;
    node.mapInst(0, 0, /*seq=*/1, /*slot=*/0, add); // older
    node.mapInst(1, 0, /*seq=*/2, /*slot=*/0, add);
    for (unsigned f = 0; f < 2; ++f) {
        node.deliver(f, 0, 0, 3, ValState::Spec, 1, 0);
        node.deliver(f, 0, 1, 4, ValState::Spec, 1, 0);
    }
    node.tick(0);
    node.tick(1);
    ASSERT_EQ(events.size(), 2u);
    // Frame 1's slot first wants an upgrade (same value, now Final),
    // then a re-fire (changed value): the upgrade is void.
    node.deliver(1, 0, 0, 3, ValState::Final, 2, 0);
    node.deliver(1, 0, 1, 5, ValState::Final, 2, 0);
    node.deliver(0, 0, 0, 9, ValState::Spec, 2, 0);
    node.tick(2); // the older slot takes the ALU
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[2].seq, 1u);
    node.tick(3);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[3].seq, 2u);
    EXPECT_EQ(events[3].value, 8u);
    EXPECT_FALSE(events[3].statusOnly);
    EXPECT_FALSE(node.hasWork());
}

TEST_F(ExecNodeTest, FinalOperandValueChangePanics)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Final, 1, 0);
    EXPECT_PANIC(node.deliver(0, 0, 0, 8, ValState::Final, 2, 0),
                 "protocol violation");
}

TEST_F(ExecNodeTest, OldestBlockIssuesFirst)
{
    isa::Instruction movi;
    movi.op = Opcode::MOVI;
    movi.imm = 1;
    node.mapInst(1, 0, /*seq=*/9, /*slot=*/0, movi);
    node.mapInst(2, 0, /*seq=*/4, /*slot=*/0, movi);
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 4u); // older block wins the ALU
}

TEST_F(ExecNodeTest, StoreEmitsResolveWithSplitStates)
{
    isa::Instruction st;
    st.op = Opcode::STD;
    st.lsid = 3;
    node.mapInst(0, 0, 1, 0, st);
    node.deliver(0, 0, 0, 0x100, ValState::Final, 1, 0); // addr
    node.deliver(0, 0, 1, 42, ValState::Spec, 1, 0);     // data
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, NodeEvent::Kind::StoreResolve);
    EXPECT_EQ(events[0].addr, 0x100u);
    EXPECT_EQ(events[0].value, 42u);
    EXPECT_EQ(events[0].addrState, ValState::Final);
    EXPECT_EQ(events[0].state, ValState::Spec);
    EXPECT_EQ(events[0].lsid, 3u);
}

TEST_F(ExecNodeTest, LoadEmitsRequestWithItsSlot)
{
    // The request names the load's slot; the LSQ replies to the
    // targets of that static instruction.
    isa::Instruction ld;
    ld.op = Opcode::LDD;
    ld.imm = 8;
    ld.lsid = 0;
    ld.targets[0] = Target::toOperand(5, 1);
    node.mapInst(0, 0, 1, 7, ld);
    node.deliver(0, 0, 0, 0x100, ValState::Final, 1, 0);
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, NodeEvent::Kind::LoadRequest);
    EXPECT_EQ(events[0].addr, 0x108u);
    EXPECT_EQ(events[0].slot, 7u);
}

TEST_F(ExecNodeTest, ClearFrameFreesSlots)
{
    mapAdd();
    EXPECT_EQ(node.occupancy(), 1u);
    node.clearFrame(0);
    EXPECT_EQ(node.occupancy(), 0u);
}

/**
 * A slot-by-slot model of a node's reservation stations: it derives
 * each slot's want bits from its flags on every query, as the node
 * did before it kept them incrementally.
 */
struct RsModel
{
    struct Rs
    {
        bool valid = false;
        bool executed = false;
        bool dirtyValue = false;
        bool dirtyState = false;
        DynBlockSeq seq = 0;
        SlotId slot = 0;
        isa::Instruction inst;
        unsigned seen = 0;
        std::array<Word, isa::kMaxOperands> val{};
        std::array<ValState, isa::kMaxOperands> state{};
        std::array<std::uint32_t, isa::kMaxOperands> wave{};
        Word lastValue = 0;
        ValState lastState = ValState::Spec;
        std::uint32_t sends = 0;

        unsigned numOps() const { return inst.numOperands(); }
        bool ready() const
        {
            return valid && seen == (1u << numOps()) - 1;
        }
        bool wantAlu(const CoreParams &p) const
        {
            return ready() && (!executed || dirtyValue ||
                               (p.commitWaveUsesAlu && dirtyState));
        }
        bool wantUp(const CoreParams &p) const
        {
            return ready() && !p.commitWaveUsesAlu && executed &&
                   !dirtyValue && dirtyState;
        }
        ValState inputState() const
        {
            ValState s = ValState::Final;
            for (unsigned k = 0; k < numOps(); ++k)
                s = andState(s, state[k]);
            return s;
        }
    };

    /** What one issue sends (the node's event, abridged). */
    struct Sent
    {
        DynBlockSeq seq;
        SlotId slot;
        Word value;
        ValState state;
        std::uint32_t wave;
        bool statusOnly;
        bool operator==(const Sent &o) const
        {
            return seq == o.seq && slot == o.slot && value == o.value &&
                   state == o.state && wave == o.wave &&
                   statusOnly == o.statusOnly;
        }
    };

    explicit RsModel(const CoreParams &params)
        : p(params), rs(params.slotsPerNode * params.numFrames)
    {
    }

    bool
    hasWork() const
    {
        for (const Rs &r : rs)
            if (r.wantAlu(p) || r.wantUp(p))
                return true;
        return false;
    }

    unsigned
    occupancy() const
    {
        unsigned n = 0;
        for (const Rs &r : rs)
            n += r.valid;
        return n;
    }

    bool
    deliver(unsigned i, unsigned k, Word v, ValState st,
            std::uint32_t wave)
    {
        Rs &r = rs[i];
        if (wave <= r.wave[k])
            return false;
        r.wave[k] = wave;
        bool first = !(r.seen & (1u << k));
        ValState prev = first ? ValState::Spec : r.state[k];
        bool changed = first || r.val[k] != v;
        ValState next = prev == ValState::Final ? ValState::Final : st;
        r.seen |= 1u << k;
        r.val[k] = v;
        r.state[k] = next;
        if (r.executed) {
            if (changed)
                r.dirtyValue = true;
            else if (prev != ValState::Final && next == ValState::Final)
                r.dirtyState = true;
        }
        return true;
    }

    void
    upgrade(Rs &r, std::vector<Sent> &out)
    {
        r.dirtyState = false;
        ValState s = r.inputState();
        if (s != ValState::Final || r.lastState == ValState::Final)
            return;
        r.lastState = s;
        out.push_back({r.seq, r.slot, r.lastValue, s, ++r.sends, true});
    }

    /** One node tick: the ALU issue, then the commit ports. */
    std::vector<Sent>
    tick()
    {
        std::vector<Sent> out;
        Rs *best = nullptr;
        for (Rs &r : rs) {
            if (r.wantAlu(p) &&
                (!best || r.seq < best->seq ||
                 (r.seq == best->seq && r.slot < best->slot)))
                best = &r;
        }
        if (best) {
            Rs &r = *best;
            if (p.commitWaveUsesAlu && r.executed && !r.dirtyValue &&
                r.dirtyState) {
                upgrade(r, out);
            } else {
                Word v = isa::evalOp(r.inst.op, r.val[0], r.val[1],
                                     r.val[2], r.inst.imm);
                ValState s = r.inputState();
                bool squash = r.executed && r.lastValue == v &&
                              r.lastState == s;
                r.executed = true;
                r.dirtyValue = r.dirtyState = false;
                r.lastValue = v;
                r.lastState = s;
                if (!squash)
                    out.push_back({r.seq, r.slot, v, s, ++r.sends, false});
            }
        }
        unsigned budget = p.commitPortsPerNode;
        for (Rs &r : rs) {
            if (!budget || p.commitWaveUsesAlu)
                break;
            if (r.wantUp(p)) {
                upgrade(r, out);
                --budget;
            }
        }
        return out;
    }

    const CoreParams &p;
    std::vector<Rs> rs;
};

/**
 * Map, deliver, issue and clear frames in a seeded order on a node
 * whose frames straddle 64-bit words (12 slots x 16 frames). After
 * every step the node's hasWork(), occupancy() and issued events
 * must match the model, under both commit-wave settings.
 */
TEST(ExecNodeWantBits, MatchSlotBySlotModel)
{
    const isa::Opcode ops[] = {Opcode::MOVI, Opcode::MOV, Opcode::ADD,
                               Opcode::SEL};
    for (bool alu_commit : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(testing::Message() << "seed " << seed
                                            << " aluCommit "
                                            << alu_commit);
            CoreParams params;
            params.slotsPerNode = 12;
            params.numFrames = 16;
            params.commitWaveUsesAlu = alu_commit;
            StatSet stats("t");
            NodeStats ns{stats.counter("core.alu_issues", ""),
                         stats.counter("core.alu_reexecs", ""),
                         stats.counter("core.upgrades", ""),
                         stats.counter("core.squashes", ""),
                         stats.histogram("core.wave_depth", "")};
            ExecNode node(params, ns);
            RsModel model(params);
            Rng rng(seed);
            std::vector<bool> frame_used(params.numFrames, false);
            DynBlockSeq next_seq = 1;
            Word next_val = 100;
            Cycle now = 0;
            unsigned last = 0; ///< slot of the previous delivery

            for (unsigned step = 0; step < 5000; ++step) {
                unsigned what = static_cast<unsigned>(rng.below(10));
                if (what == 0) {
                    // Map a frame: a random subset of its slots.
                    auto f = static_cast<unsigned>(
                        rng.below(params.numFrames));
                    if (frame_used[f])
                        continue;
                    frame_used[f] = true;
                    DynBlockSeq seq = next_seq++;
                    for (unsigned l = 0; l < params.slotsPerNode; ++l) {
                        if (!rng.chance(3, 4))
                            continue;
                        isa::Instruction in;
                        in.op = ops[rng.below(4)];
                        in.imm = static_cast<std::int64_t>(rng.below(9));
                        auto slot = static_cast<SlotId>(
                            (l * 7 + seq) % params.slotsPerNode);
                        node.mapInst(f, l, seq, slot, in);
                        RsModel::Rs &r =
                            model.rs[f * params.slotsPerNode + l];
                        r = RsModel::Rs{};
                        r.valid = true;
                        r.seq = seq;
                        r.slot = slot;
                        r.inst = in;
                    }
                } else if (what == 1) {
                    auto f = static_cast<unsigned>(
                        rng.below(params.numFrames));
                    node.clearFrame(f);
                    frame_used[f] = false;
                    for (unsigned l = 0; l < params.slotsPerNode; ++l)
                        model.rs[f * params.slotsPerNode + l].valid =
                            false;
                } else if (what <= 6) {
                    // Deliver to a valid slot with operands: often the
                    // last one again, so waves pile up on one slot.
                    unsigned i = rng.chance(1, 2)
                                     ? last
                                     : static_cast<unsigned>(
                                           rng.below(model.rs.size()));
                    last = i;
                    RsModel::Rs &r = model.rs[i];
                    if (!r.valid || r.numOps() == 0)
                        continue;
                    auto k = static_cast<unsigned>(rng.below(r.numOps()));
                    bool seen = r.seen & (1u << k);
                    // A Final operand may only repeat its value.
                    bool keep = seen && (r.state[k] == ValState::Final ||
                                         rng.chance(1, 2));
                    Word v = keep ? r.val[k] : next_val++;
                    ValState st = rng.chance(1, 2) ? ValState::Final
                                                   : ValState::Spec;
                    std::uint32_t wave = rng.chance(1, 8)
                                             ? r.wave[k]
                                             : r.wave[k] + 1;
                    unsigned f = i / params.slotsPerNode;
                    unsigned l = i % params.slotsPerNode;
                    EXPECT_EQ(node.deliver(f, l, k, v, st, wave, 0),
                              model.deliver(i, k, v, st, wave));
                } else {
                    ++now;
                    node.events().clear();
                    std::vector<RsModel::Sent> want = model.tick();
                    bool did = node.tick(now);
                    std::vector<RsModel::Sent> got;
                    for (const NodeEvent &ev : node.events())
                        got.push_back({ev.seq, ev.slot, ev.value,
                                       ev.state, ev.wave,
                                       ev.statusOnly});
                    ASSERT_TRUE(got == want) << "step " << step;
                    if (!want.empty())
                        EXPECT_TRUE(did);
                }
                ASSERT_EQ(node.hasWork(), model.hasWork())
                    << "step " << step;
                ASSERT_EQ(node.occupancy(), model.occupancy())
                    << "step " << step;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Register unit.
// ---------------------------------------------------------------------------

class RegUnitTest : public ::testing::Test
{
  protected:
    RegUnitTest()
        : stats("t"),
          init(initRegs()),
          unit(std::make_unique<RegUnit>(params, init, stats))
    {
        // writer: writes r3; reader: reads r3.
        compiler::ProgramBuilder pb("t");
        auto &w = pb.newBlock("writer");
        w.writeReg(3, w.addi(w.readReg(3), 1));
        w.branchHalt();
        auto &r = pb.newBlock("reader");
        r.writeReg(4, r.readReg(3));
        r.branchHalt();
        prog = std::make_unique<isa::Program>(pb.build());
    }

    static std::vector<Word>
    initRegs()
    {
        std::vector<Word> regs(isa::kNumArchRegs, 0);
        regs[3] = 333;
        return regs;
    }

    const isa::Block &writer() { return prog->block(0); }
    const isa::Block &reader() { return prog->block(1); }

    CoreParams params;
    StatSet stats;
    std::vector<Word> init;
    std::unique_ptr<RegUnit> unit;
    std::unique_ptr<isa::Program> prog;
    /** The unit's outbox; nothing drains it, so it accumulates. */
    std::vector<RegForward> &forwards = unit->forwards();
};

TEST_F(RegUnitTest, ArchitecturalReadIsImmediateAndFinal)
{
    unit->mapBlock(0, 1, reader());
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_EQ(forwards[0].value, 333u);
    EXPECT_EQ(forwards[0].state, ValState::Final);
}

TEST_F(RegUnitTest, ReaderSubscribesToInFlightWriter)
{
    unit->mapBlock(0, 1, writer());
    forwards.clear();
    unit->mapBlock(0, 2, reader());
    // The reader subscribed to the in-flight writer; nothing can be
    // forwarded until the writer's value actually arrives.
    EXPECT_TRUE(forwards.empty());
    unit->writeArrived(5, 1, 0, 334, ValState::Final, 1, 0);
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_EQ(forwards[0].readerSeq, 2u);
    EXPECT_EQ(forwards[0].value, 334u);
    EXPECT_EQ(forwards[0].state, ValState::Final);
}

TEST_F(RegUnitTest, LateSubscriberGetsCurrentValue)
{
    unit->mapBlock(0, 1, writer());
    unit->writeArrived(5, 1, 0, 334, ValState::Spec, 1, 0);
    forwards.clear();
    unit->mapBlock(6, 2, reader());
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_EQ(forwards[0].value, 334u);
    EXPECT_EQ(forwards[0].state, ValState::Spec);
}

TEST_F(RegUnitTest, WaveValueChangeReforwards)
{
    unit->mapBlock(0, 1, writer());
    unit->mapBlock(0, 2, reader());
    unit->writeArrived(5, 1, 0, 334, ValState::Spec, 1, 0);
    std::size_t n = forwards.size();
    unit->writeArrived(9, 1, 0, 500, ValState::Spec, 2, 1);
    ASSERT_GT(forwards.size(), n);
    EXPECT_EQ(forwards.back().value, 500u);
    EXPECT_EQ(stats.counterValue("regs.rewrites"), 1u);
}

TEST_F(RegUnitTest, StaleWriteWavesAreDropped)
{
    unit->mapBlock(0, 1, writer());
    unit->writeArrived(5, 1, 0, 334, ValState::Final, 5, 0);
    std::size_t n = forwards.size();
    unit->writeArrived(6, 1, 0, 111, ValState::Spec, 3, 0); // stale
    EXPECT_EQ(forwards.size(), n);
    EXPECT_TRUE(unit->blockWritesFinal(1, true));
}

TEST_F(RegUnitTest, CommitAppliesWritesArchitecturally)
{
    unit->mapBlock(0, 1, writer());
    unit->writeArrived(5, 1, 0, 334, ValState::Final, 1, 0);
    unit->commitBlock(1);
    EXPECT_EQ(unit->archRegs()[3], 334u);
    forwards.clear();
    unit->mapBlock(9, 2, reader());
    EXPECT_EQ(forwards[0].value, 334u); // now from the arch RF
}

TEST_F(RegUnitTest, FlushRemovesSubscriptions)
{
    unit->mapBlock(0, 1, writer());
    unit->mapBlock(0, 2, reader());
    unit->flushFrom(2);
    forwards.clear();
    unit->writeArrived(5, 1, 0, 334, ValState::Final, 1, 0);
    EXPECT_TRUE(forwards.empty()); // no subscriber left
    EXPECT_EQ(unit->numBlocks(), 1u);
}

TEST_F(RegUnitTest, OutOfOrderCommitPanics)
{
    unit->mapBlock(0, 1, writer());
    unit->mapBlock(0, 2, writer());
    unit->writeArrived(5, 2, 0, 1, ValState::Final, 1, 0);
    EXPECT_PANIC(unit->commitBlock(2), "out of order");
}

/** A unit over a small ring: the head wraps every few commits. */
class RegRingTest : public RegUnitTest
{
  protected:
    static constexpr unsigned kFrames = 4;

    RegRingTest()
    {
        params.numFrames = kFrames;
        unit = std::make_unique<RegUnit>(params, init, stats);
    }

    /** The unit's outbox; the fixture's reference was to the old unit. */
    std::vector<RegForward> &out() { return unit->forwards(); }
};

TEST_F(RegRingTest, ReadsResolveAcrossTheWrap)
{
    // Blocks alternate writer (reads and writes r3) and reader (reads
    // r3, writes r4). Each r3 read takes the youngest older in-flight
    // writer, skipping readers, or the committed file; each write
    // value reaches exactly the readers mapped after it up to and
    // including the next writer.
    struct Live
    {
        DynBlockSeq seq;
        bool isWriter;
    };
    std::vector<Live> live;
    Word arch3 = 333;
    DynBlockSeq next = 1;
    for (unsigned round = 0; round < 6 * kFrames; ++round) {
        while (live.size() < kFrames) {
            bool is_writer = next % 2 == 1;
            out().clear();
            unit->mapBlock(0, next, is_writer ? writer() : reader());
            bool older_writer = std::any_of(
                live.begin(), live.end(),
                [](const Live &l) { return l.isWriter; });
            if (!older_writer) {
                ASSERT_EQ(out().size(), 1u) << "seq " << next;
                EXPECT_EQ(out()[0].value, arch3);
                EXPECT_EQ(out()[0].state, ValState::Final);
            } else {
                EXPECT_TRUE(out().empty()) << "seq " << next;
            }
            live.push_back({next, is_writer});
            ++next;
        }
        // Deliver the oldest block's write and commit it.
        Live oldest = live.front();
        Word v = 1000 + oldest.seq;
        out().clear();
        unit->writeArrived(1, oldest.seq, 0, v, ValState::Final, 1, 0);
        std::vector<DynBlockSeq> want;
        if (oldest.isWriter) {
            for (std::size_t i = 1; i < live.size(); ++i) {
                want.push_back(live[i].seq);
                if (live[i].isWriter)
                    break;
            }
        }
        std::vector<DynBlockSeq> got;
        for (const RegForward &f : out()) {
            got.push_back(f.readerSeq);
            EXPECT_EQ(f.value, v);
            EXPECT_EQ(f.reg, 3u);
        }
        EXPECT_EQ(got, want) << "round " << round;
        ASSERT_TRUE(unit->blockWritesFinal(oldest.seq, true));
        unit->commitBlock(oldest.seq);
        if (oldest.isWriter)
            arch3 = v;
        EXPECT_EQ(unit->archRegs()[oldest.isWriter ? 3 : 4], v);
        live.erase(live.begin());
    }
    EXPECT_GT(next, 5 * kFrames); // the head wrapped several times
}

TEST_F(RegRingTest, FlushAcrossTheWrapKeepsOlderSubscriptions)
{
    // Move the head to the ring's last slot.
    for (DynBlockSeq s = 1; s < kFrames; ++s) {
        unit->mapBlock(0, s, reader());
        unit->writeArrived(0, s, 0, s, ValState::Final, 1, 0);
        unit->commitBlock(s);
    }
    // Writer 10 in the last slot, readers 11-13 wrap to slots 0-2.
    unit->mapBlock(0, 10, writer());
    for (DynBlockSeq s = 11; s <= 13; ++s)
        unit->mapBlock(0, s, reader());
    unit->flushFrom(12);
    EXPECT_EQ(unit->numBlocks(), 2u);
    out().clear();
    unit->writeArrived(5, 10, 0, 77, ValState::Spec, 1, 0);
    ASSERT_EQ(out().size(), 1u); // 12 and 13 unsubscribed
    EXPECT_EQ(out()[0].readerSeq, 11u);
    // A refetched reader reuses a squashed frame and subscribes anew,
    // getting the value already there.
    out().clear();
    unit->mapBlock(6, 20, reader());
    ASSERT_EQ(out().size(), 1u);
    EXPECT_EQ(out()[0].readerSeq, 20u);
    EXPECT_EQ(out()[0].value, 77u);
    out().clear();
    unit->writeArrived(7, 10, 0, 77, ValState::Final, 2, 0);
    std::vector<DynBlockSeq> got;
    for (const RegForward &f : out()) {
        got.push_back(f.readerSeq);
        EXPECT_TRUE(f.statusOnly);
    }
    EXPECT_EQ(got, (std::vector<DynBlockSeq>{11, 20}));
}

TEST_F(RegRingTest, WriteCountsSurviveDuplicateStaleAndStatusOnlyWaves)
{
    compiler::ProgramBuilder pb("two");
    auto &b = pb.newBlock("two-writes");
    compiler::Val x = b.readReg(3);
    b.writeReg(3, b.addi(x, 1));
    b.writeReg(5, b.addi(x, 2));
    b.branchHalt();
    isa::Program two = pb.build();
    unit->mapBlock(0, 1, two.block(0));
    unit->mapBlock(0, 2, reader()); // subscribes to write 0 (r3)
    auto writes_final = [&] { return unit->blockWritesFinal(1, true); };
    auto writes_seen = [&] { return unit->blockWritesFinal(1, false); };

    unit->writeArrived(1, 1, 0, 10, ValState::Spec, 1, 0);
    EXPECT_FALSE(writes_seen());
    unit->writeArrived(2, 1, 0, 10, ValState::Spec, 2, 0); // duplicate
    unit->writeArrived(2, 1, 0, 99, ValState::Final, 1, 0); // stale
    EXPECT_FALSE(writes_seen());
    unit->writeArrived(3, 1, 1, 20, ValState::Final, 1, 0);
    EXPECT_TRUE(writes_seen());
    EXPECT_FALSE(writes_final());
    // Write 1 repeats Final: a duplicate must not count twice.
    unit->writeArrived(4, 1, 1, 20, ValState::Final, 2, 0);
    unit->writeArrived(4, 1, 1, 20, ValState::Spec, 3, 0);
    EXPECT_FALSE(writes_final());
    // Write 0 changes value (a new Spec wave), then upgrades with a
    // status-only wave.
    out().clear();
    unit->writeArrived(5, 1, 0, 11, ValState::Spec, 3, 0);
    EXPECT_FALSE(writes_final());
    unit->writeArrived(6, 1, 0, 11, ValState::Final, 4, 0);
    EXPECT_TRUE(writes_final());
    ASSERT_EQ(out().size(), 2u);
    EXPECT_FALSE(out()[0].statusOnly);
    EXPECT_TRUE(out()[1].statusOnly);
    unit->writeArrived(7, 1, 0, 11, ValState::Final, 5, 0);
    EXPECT_TRUE(writes_final());
    unit->commitBlock(1);
    EXPECT_EQ(unit->archRegs()[3], 11u);
    EXPECT_EQ(unit->archRegs()[5], 20u);

    // A frame reused by a block with one write starts its counts over.
    unit->mapBlock(0, 3, writer());
    EXPECT_FALSE(unit->blockWritesFinal(3, false));
}

TEST_F(RegRingTest, MappingIntoAFullRingPanics)
{
    for (DynBlockSeq s = 1; s <= kFrames; ++s)
        unit->mapBlock(0, s, writer());
    EXPECT_PANIC(unit->mapBlock(0, kFrames + 1, writer()),
                 "register window full");
    EXPECT_PANIC(unit->mapBlock(0, kFrames, writer()), "register window full");
    unit->flushFrom(kFrames);
    EXPECT_PANIC(unit->mapBlock(0, 2, writer()), "out of order");
}

// ---------------------------------------------------------------------------
// Processor-level integration.
// ---------------------------------------------------------------------------

/** Loop whose exit really is data-dependent (mispredictable). */
isa::Program
zigzagProgram(std::uint64_t n)
{
    compiler::ProgramBuilder pb("zigzag");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, n);
    auto &loop = pb.newBlock("loop");
    compiler::Val i = loop.readReg(1);
    // Alternate between two successor blocks based on parity.
    loop.branchCond(loop.andi(i, 1), "odd", "even");
    auto emit = [&](const std::string &name, std::int64_t k) {
        auto &b = pb.newBlock(name);
        compiler::Val j = b.readReg(1);
        compiler::Val j2 = b.addi(j, 1);
        b.writeReg(1, j2);
        b.writeReg(5, b.addi(b.readReg(5), k));
        b.branchCond(b.tlt(j2, b.readReg(2)), "loop", "done");
    };
    emit("odd", 3);
    emit("even", 7);
    auto &done = pb.newBlock("done");
    done.store(done.imm(0x1000), done.readReg(5), 8);
    done.branchHalt();
    pb.setEntry("loop");
    return pb.build();
}

TEST(Processor, HandlesAlternatingControlFlow)
{
    for (const auto &cfg : {sim::Configs::dsre(),
                            sim::Configs::blindFlush()}) {
        sim::Simulator s(zigzagProgram(40), cfg);
        sim::RunResult r = s.run(2'000'000);
        EXPECT_TRUE(r.halted);
        EXPECT_TRUE(r.archMatch);
    }
}

TEST(Processor, TinyWindowStillCorrect)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.numFrames = 1; // no cross-block speculation at all
    sim::Simulator s(zigzagProgram(20), cfg);
    sim::RunResult r = s.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

TEST(Processor, DeepWindowStillCorrect)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.numFrames = 16;
    sim::Simulator s(zigzagProgram(200), cfg);
    sim::RunResult r = s.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

TEST(Processor, SingleBlockProgramHalts)
{
    compiler::ProgramBuilder pb("one");
    auto &b = pb.newBlock("only");
    b.store(b.imm(0x10), b.imm(9), 8);
    b.branchHalt();
    sim::Simulator s(pb.build(), sim::Configs::dsre());
    sim::RunResult r = s.run(100'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_EQ(r.committedBlocks, 1u);
}

TEST(Processor, ZeroOperandInstructionIssuesTheCycleAfterMapping)
{
    // The block's MOVIs need no operand, so no message ever wakes
    // their nodes: the event engine must tick them because mapping
    // marked them ready, on the cycle after mapping. The tick engine,
    // which ticks every node every cycle, pins that cycle.
    compiler::ProgramBuilder pb("movi");
    auto &b = pb.newBlock("only");
    b.writeReg(1, b.imm(7));
    b.writeReg(2, b.imm(9));
    b.branchHalt();
    isa::Program prog = pb.build();

    core::MachineConfig tick_cfg = sim::Configs::dsre();
    tick_cfg.engine = EngineKind::Tick;
    sim::RunResult tick = sim::Simulator(prog, tick_cfg).run(100'000);
    sim::RunResult event =
        sim::Simulator(prog, sim::Configs::dsre()).run(100'000);

    ASSERT_TRUE(tick.halted);
    ASSERT_TRUE(event.halted);
    EXPECT_TRUE(event.archMatch);
    EXPECT_EQ(event.cycles, tick.cycles);
    EXPECT_EQ(event.counter("core.alu_issues"),
              tick.counter("core.alu_issues"));
}

} // namespace
} // namespace edge::core
