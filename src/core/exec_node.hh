/**
 * @file
 * One execution node of the grid: an integer/FP ALU fronted by
 * `slotsPerNode * numFrames` reservation-station slots. Implements
 * the node-side half of the DSRE protocol:
 *
 *  - an operand arrival with a *changed value* re-arms the slot for
 *    a full ALU re-execution (a speculative wave passing through);
 *  - an arrival that only upgrades Spec -> Final re-arms the slot
 *    for a cheap state-upgrade re-send (the commit wave), which by
 *    default uses a separate commit port rather than the ALU;
 *  - re-sends whose value and state match the last send are
 *    squashed (value-identity squash), configurable for ablation;
 *  - wave numbers are per producer-link monotonic: stale (lower
 *    wave) messages are ignored, Final is sticky.
 *
 * Reservation-station state is split by heat. The issue scan reads
 * dense per-slot arrays (flags, seen masks, block seq and slot id for
 * age order) and two want-bitmaps (want-ALU, want-upgrade); all other
 * state, including the op decoded once at map (event kind and
 * latency), sits in one Slot record per reservation station. Want
 * bits are set and cleared where a slot's readiness changes (map,
 * operand delivery, issue, frame clear), and a count of set bits
 * makes hasWork() O(1). mapInst writes only the static fields and
 * the state read before it is next written (flags, seen mask,
 * operand waves, send count, last-send cycle, trigger depth).
 * Emitted events are built in place in the outbox and carry no
 * target list: the processor reads the producer's targets from the
 * static block by slot.
 */

#ifndef EDGE_CORE_EXEC_NODE_HH
#define EDGE_CORE_EXEC_NODE_HH

#include <array>
#include <vector>

#include "chaos/chaos.hh"
#include "common/stats.hh"
#include "core/params.hh"
#include "isa/instruction.hh"

namespace edge::core {

/** What an issued instruction sends; the processor routes it. */
struct NodeEvent
{
    enum class Kind : std::uint8_t
    {
        Result,       ///< value to the instruction's targets
        LoadRequest,  ///< address to the LSQ
        StoreResolve, ///< address + data to the LSQ
        Exit,         ///< branch outcome to the control unit
    };

    Cycle when = 0; ///< completion time (message leaves the node)
    DynBlockSeq seq = 0;
    Word value = 0; ///< result / store data / exit index
    Addr addr = 0;  ///< loads and stores
    std::uint32_t wave = 0; ///< per-producer monotonic send count
    SlotId slot = 0;
    Lsid lsid = 0;
    std::uint16_t depth = 0;
    Kind kind = Kind::Result;
    ValState state = ValState::Spec;    ///< result / store *data* state
    ValState addrState = ValState::Spec; ///< store *address* state
    bool statusOnly = false; ///< commit-wave upgrade (no new value)
};

/** Aggregated (across nodes) execution statistics. */
struct NodeStats
{
    Counter &issues;      ///< ALU issues (first executions)
    Counter &reexecs;     ///< ALU issues that are DSRE re-fires
    Counter &upgrades;    ///< commit-wave state-upgrade re-sends
    Counter &squashes;    ///< re-sends suppressed by value identity
    Histogram &waveDepth; ///< propagation depth of each re-fire
};

class ExecNode
{
  public:
    /**
     * @param chaos optional fault injector (not owned); only its
     *        compile-time-gated protocol *mutations* apply here
     * @param node_index this node's flat grid index, matched against
     *        ChaosParams::mutationNode
     */
    ExecNode(const CoreParams &params, NodeStats stats,
             chaos::ChaosEngine *chaos = nullptr,
             unsigned node_index = 0);

    /** Install one instruction into (frame, local slot). */
    void mapInst(unsigned frame, unsigned local, DynBlockSeq seq,
                 SlotId slot, const isa::Instruction &inst);

    /** Release every slot of the frame (commit or flush). */
    void clearFrame(unsigned frame);

    /**
     * An operand message arrived for (frame, local slot).
     * @return false if the message was stale (old wave) and dropped
     */
    bool deliver(unsigned frame, unsigned local, unsigned operand,
                 Word value, ValState state, std::uint32_t wave,
                 std::uint16_t depth);

    /**
     * Issue up to one ALU op and the commit-port budget.
     * @return true iff any slot issued (the node did work)
     */
    bool tick(Cycle now);

    /**
     * Events issued since the owner last cleared this list, in issue
     * order; the processor routes them after each tick().
     */
    std::vector<NodeEvent> &events() { return _events; }

    /**
     * True if tick(now) would issue anything — i.e. some slot wants
     * the ALU or a commit-port upgrade. The event-driven engine skips
     * the node (and lets the cycle loop skip whole cycles) when every
     * node answers false. O(1): the want-bitmaps count their bits.
     */
    bool hasWork() const { return _wantAlu.count || _wantUpgrade.count; }

    /** Number of occupied slots (tests / deadlock dumps). */
    unsigned occupancy() const;

    /** True if some slot could still make progress (debug dumps). */
    std::string debugState() const;

  private:
    // Per-slot flag bits (_flags).
    static constexpr std::uint8_t kValid = 1u << 0;
    static constexpr std::uint8_t kExecuted = 1u << 1;
    static constexpr std::uint8_t kDirtyValue = 1u << 2;
    static constexpr std::uint8_t kDirtyState = 1u << 3;

    /**
     * A reservation station's cold state. mapInst writes the static
     * fields and resets opWave, sendCount, lastSendWhen and
     * triggerDepth; every other field is written (by the first
     * delivery or execution) before it is read. What deliver() reads
     * comes first.
     */
    struct Slot
    {
        std::array<Word, isa::kMaxOperands> opVal{};
        std::array<std::uint32_t, isa::kMaxOperands> opWave{};
        std::array<ValState, isa::kMaxOperands> opState{};
        std::uint8_t numOps = 0;
        std::uint16_t triggerDepth = 0;
        isa::Opcode op = isa::Opcode::MOVI;
        NodeEvent::Kind kind = NodeEvent::Kind::Result;
        Lsid lsid = 0;
        std::uint32_t latency = 0; ///< CoreParams::execLatency(op)
        std::int64_t imm = 0;

        std::uint32_t sendCount = 0; ///< outgoing wave counter
        ValState lastState = ValState::Spec;
        ValState lastAddrState = ValState::Spec; ///< stores only
        Cycle lastSendWhen = 0; ///< upgrades don't overtake data
        Word lastValue = 0;     ///< last sent value (loads: address)
        Word lastData = 0;      ///< stores: last sent data
    };

    /**
     * A wake bitmap over the node's slots, with a count of its set
     * bits.
     */
    struct WantSet
    {
        std::vector<std::uint64_t> words;
        unsigned count = 0;

        void set(unsigned rs);
        void clear(unsigned rs);
        /** Clear the bits of slots [lo, hi). */
        void clearRange(unsigned lo, unsigned hi);
    };

    unsigned at(unsigned frame, unsigned local) const;

    ValState inputState(const Slot &c) const;

    /** Is the given protocol mutation active on this node? */
    bool mutated(chaos::Mutation m) const;

    /** Execute one slot on the ALU; emit its event. */
    void execute(Cycle now, unsigned rs, bool is_reexec);

    /** Send the commit-wave upgrade for a slot (no ALU). */
    void upgrade(Cycle now, unsigned rs);

    /** Append the outgoing event for a slot's current operands. */
    NodeEvent &emit(Cycle done, unsigned rs, Word value, ValState state,
                    std::uint16_t depth);

    const CoreParams &_p;
    NodeStats _stats;
    std::vector<NodeEvent> _events;
    chaos::ChaosEngine *_chaos;
    unsigned _nodeIndex;
    unsigned _numSlots; ///< slotsPerNode * numFrames
    /** execLatency per opcode, so mapInst decodes with one load. */
    std::array<std::uint32_t,
               static_cast<std::size_t>(isa::Opcode::NUM_OPCODES)>
        _latency{};

    // Reservation-station state, indexed by
    // rs = frame * slotsPerNode + local. The scan-hot fields are dense
    // arrays; everything else is in _slots.
    std::vector<std::uint8_t> _flags;
    std::vector<std::uint8_t> _seen; ///< operand-seen bitmask
    std::vector<std::uint8_t> _full; ///< (1 << numOps) - 1
    std::vector<DynBlockSeq> _seq;
    std::vector<SlotId> _slotId;
    std::vector<Slot> _slots;

    // Wake bitmaps: bit rs set iff the slot is valid, all operands
    // seen, and it wants an ALU issue / a commit-port upgrade. A slot
    // never has both bits set.
    WantSet _wantAlu;
    WantSet _wantUpgrade;
};

} // namespace edge::core

#endif // EDGE_CORE_EXEC_NODE_HH
