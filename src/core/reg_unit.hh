/**
 * @file
 * The register tiles: the architectural register file plus the
 * forwarding logic that lets in-flight blocks communicate. A block's
 * register read is satisfied either from the architectural file
 * (Final by definition) or from the youngest older in-flight block
 * that writes the register — in which case the reader subscribes and
 * receives every wave the writer produces, so DSRE waves and the
 * commit wave propagate across block boundaries.
 *
 * The in-flight blocks sit in a ring of `numFrames` entries, oldest
 * first, each with a fixed array of write slots, a mask of the
 * registers the block writes and counts of its unseen and non-Final
 * writes (DESIGN.md "The register unit"). Mapping, committing and
 * flushing a block allocate nothing once the subscriber vectors have
 * grown to the window's fan-out.
 */

#ifndef EDGE_CORE_REG_UNIT_HH
#define EDGE_CORE_REG_UNIT_HH

#include <array>
#include <vector>

#include "common/frame_ring.hh"
#include "common/stats.hh"
#include "core/params.hh"
#include "isa/block.hh"

namespace edge::core {

/**
 * A register value being forwarded to one reader's targets: those of
 * read `readIdx` of block `readerSeq`.
 */
struct RegForward
{
    Cycle when = 0;
    DynBlockSeq readerSeq = 0;
    Word value = 0;
    std::uint32_t wave = 0; ///< per reader-read link, monotonic
    std::uint16_t depth = 0;
    std::uint8_t reg = 0; ///< for bank routing
    std::uint8_t readIdx = 0;
    ValState state = ValState::Spec;
    bool statusOnly = false; ///< commit-wave upgrade (same value)
};

class RegUnit
{
  public:
    RegUnit(const CoreParams &params, const std::vector<Word> &init_regs,
            StatSet &stats);

    /**
     * A block entered the window: resolve every register read
     * (forward immediately or subscribe) and register its writes.
     * Panics when all `numFrames` entries are in flight.
     */
    void mapBlock(Cycle now, DynBlockSeq seq, const isa::Block &block);

    /** A write value arrived (or changed / upgraded) from the grid. */
    void writeArrived(Cycle now, DynBlockSeq seq, unsigned write_idx,
                      Word value, ValState state, std::uint32_t wave,
                      std::uint16_t depth);

    /** All of the block's writes present (and Final if required)? */
    bool blockWritesFinal(DynBlockSeq seq, bool need_final) const;

    /** Commit the oldest block: retire its writes architecturally. */
    void commitBlock(DynBlockSeq seq);

    /** Squash blocks with seq >= from_seq. */
    void flushFrom(DynBlockSeq from_seq);

    const std::vector<Word> &archRegs() const { return _regs; }

    std::size_t numBlocks() const { return _window.size(); }

    /**
     * Forwards emitted since the owner last cleared this list, in
     * emission order; the processor routes them after each mapBlock
     * and writeArrived.
     */
    std::vector<RegForward> &forwards() { return _forwards; }

  private:
    struct Subscription
    {
        DynBlockSeq readerSeq = 0;
        std::uint8_t reg = 0;
        std::uint8_t readIdx = 0; ///< the reader's read slot
        std::uint32_t wave = 0; ///< forwards sent on this link
        Cycle lastWhen = 0;     ///< upgrades may not overtake data
    };

    struct WriteSlot
    {
        std::uint8_t reg = 0;
        bool seen = false;
        Word value = 0;
        ValState state = ValState::Spec;
        std::uint32_t wave = 0; ///< drop stale (reordered) arrivals
        std::uint16_t depth = 0;
        /** Readers subscribed to this write; cleared, never freed,
         *  when the frame is reused. */
        std::vector<Subscription> subscribers;
    };

    static_assert(isa::kNumArchRegs <= 64, "one mask bit per register");

    /** One in-flight block. */
    struct Frame
    {
        DynBlockSeq seq = 0;
        /** Bit r set iff the block writes register r. */
        std::uint64_t writesReg = 0;
        std::uint8_t numWrites = 0;
        std::uint8_t unseen = 0;   ///< writes that have not arrived
        std::uint8_t nonFinal = 0; ///< writes not Final (unseen too)
        /** The write slot of each register in `writesReg`. */
        std::array<std::uint8_t, isa::kNumArchRegs> writeOf{};
        std::array<WriteSlot, isa::kMaxBlockWrites> writes;
    };

    /** Charge a register-bank port; returns the start cycle. */
    Cycle bankPort(Cycle now, unsigned reg);

    void forwardTo(Cycle now, Subscription &sub, Word value,
                   ValState state, std::uint16_t depth,
                   bool status_only);

    const CoreParams &_p;
    std::vector<Word> _regs;
    FrameRing<Frame> _window;
    std::vector<Cycle> _bankFree;

    std::vector<RegForward> _forwards;
    Counter &_archReads;
    Counter &_forwardReads;
    Counter &_rewrites;
};

} // namespace edge::core

#endif // EDGE_CORE_REG_UNIT_HH
