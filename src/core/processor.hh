/**
 * @file
 * The EDGE processor: a grid of execution nodes, register tiles,
 * LSQ / D-cache banks, an operand micronetwork, a next-block
 * predictor, and the block-atomic fetch/map/execute/commit pipeline.
 * Supports two misspeculation recovery mechanisms — classic pipeline
 * flush, and the paper's distributed selective re-execution (DSRE)
 * protocol with speculative waves and a trailing commit wave.
 */

#ifndef EDGE_CORE_PROCESSOR_HH
#define EDGE_CORE_PROCESSOR_HH

#include <array>
#include <memory>
#include <vector>

#include "chaos/chaos.hh"
#include "chaos/invariants.hh"
#include "chaos/progress.hh"
#include "chaos/sim_error.hh"
#include "chaos/trace_ring.hh"
#include "common/frame_ring.hh"
#include "compiler/placement.hh"
#include "core/exec_node.hh"
#include "core/msg.hh"
#include "core/params.hh"
#include "core/program_image.hh"
#include "core/reg_unit.hh"
#include "lsq/lsq.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"
#include "net/mesh.hh"
#include "predictor/dependence.hh"
#include "predictor/next_block.hh"
#include "predictor/oracle.hh"

namespace edge::core {

/**
 * Which cycle-loop implementation drives the machine. Both produce
 * bit-identical results (same cycle counts, stats, failure reports);
 * the event engine skips cycles in which nothing can happen by
 * consulting a wake list, and is the default. The tick engine is the
 * original poll-every-cycle loop, kept as a differential reference.
 */
enum class EngineKind : std::uint8_t
{
    Tick,
    Event,
};

inline const char *
engineName(EngineKind kind)
{
    return kind == EngineKind::Tick ? "tick" : "event";
}

/**
 * Parse an engine name; returns Event and sets *ok = false (when
 * provided) if the name is not recognised.
 */
inline EngineKind
engineByName(const std::string &name, bool *ok = nullptr)
{
    if (ok)
        *ok = true;
    if (name == "tick")
        return EngineKind::Tick;
    if (name == "event")
        return EngineKind::Event;
    if (ok)
        *ok = false;
    return EngineKind::Event;
}

/** Everything configurable about one simulated machine. */
struct MachineConfig
{
    CoreParams core;
    mem::HierarchyParams mem;
    lsq::LsqParams lsq;
    pred::NextBlockParams nbp;
    pred::DepPolicy policy = pred::DepPolicy::Blind;
    /**
     * Cross-check the committed path against the reference trace
     * (catches control/commit bugs; requires an OracleDb).
     */
    bool checkCommittedPath = true;
    /**
     * Run-level RNG seed. Every pseudo-random draw in a run — the
     * workload generators and the chaos engine's per-site streams —
     * derives from one run seed, so any run replays exactly.
     */
    std::uint64_t rngSeed = 1;
    /** Deterministic fault injection (off unless a profile is set). */
    chaos::ChaosParams chaos;
    /** Feed every delivery through the DSRE invariant checker. */
    bool checkInvariants = false;
    /** Events retained in the failure-report trace ring. */
    std::size_t traceDepth = 64;
    /** Cycle-loop implementation (observably identical either way). */
    EngineKind engine = EngineKind::Event;
};

class Processor
{
  public:
    /**
     * @param config machine configuration
     * @param program validated program to run
     * @param oracle committed-path database; required for the Oracle
     *        policy and the committed-path cross-check, may be null
     *        otherwise
     * @param stats statistics sink (must outlive the processor)
     * @param image optional shared program image (validated program +
     *        cached placements); when given it must wrap `program`,
     *        and per-Processor validation / placement is skipped
     */
    Processor(const MachineConfig &config, const isa::Program &program,
              const pred::OracleDb *oracle, StatSet &stats,
              const ProgramImage *image = nullptr);

    struct Result
    {
        Cycle cycles = 0;
        std::uint64_t committedBlocks = 0;
        std::uint64_t committedInsts = 0;
        bool halted = false;
        /** Why the run stopped early, with diagnostics (ok() if it
         *  did not): watchdog, invariant violation, protocol panic. */
        chaos::SimError error;
    };

    /** Run until the program halts or the cycle budget is spent. */
    Result run(Cycle max_cycles);

    /** Architectural register state (for golden-model comparison). */
    const std::vector<Word> &archRegs() const;

    /** Architectural memory state (for golden-model comparison). */
    const mem::SparseMemory &memory() const { return _dmem; }

    const MachineConfig &config() const { return _cfg; }

    /** The fault injector, if one is active (null otherwise). */
    const chaos::ChaosEngine *chaosEngine() const { return _chaos.get(); }

    /** The invariant checker, if enabled (null otherwise). */
    const chaos::InvariantChecker *checker() const { return _check.get(); }

  private:
    struct BlockCtx
    {
        DynBlockSeq seq = 0;
        BlockId blockId = 0;
        std::uint64_t archIdx = 0;
        unsigned frame = 0;
        const isa::Block *block = nullptr;
        /** Shared, static: each slot's node and RS index, the node
         *  mask and every target's mesh position. */
        const compiler::Placement *placement = nullptr;

        unsigned predictedExit = 0; ///< original prediction (stats)
        unsigned fetchedExit = 0;   ///< exit the fetch chain follows
        std::uint64_t historySnapshot = 0;

        bool exitSeen = false;
        Word exitValue = 0;
        ValState exitState = ValState::Spec;
        std::uint32_t exitWave = 0;
    };

    // --- geometry helpers -------------------------------------------------
    static net::Coord
    toCoord(compiler::MeshPos pos)
    {
        return {pos.row, pos.col};
    }
    net::Coord gridCoord(unsigned node) const { return _nodePos[node]; }
    net::Coord rfCoord(unsigned reg) const
    {
        return toCoord(_geom.regPos(reg));
    }
    net::Coord lsqCoord(Addr addr) const;
    net::Coord ctrlCoord() const { return {0, 0}; }
    Addr codeAddr(BlockId block) const;

    // --- pipeline stages --------------------------------------------------
    void deliverMsg(Cycle now, const Msg &msg);
    void handleExit(Cycle now, const Msg &msg);
    void routeNodeEvent(const NodeEvent &ev, unsigned node);
    /** Tick one node, then route the events it issued, in order. */
    bool tickNode(unsigned node);
    /**
     * Route the LSQ's replies in emission order, then recover from
     * its flush requests; called after every LSQ entry point that
     * can emit them.
     */
    void drainLsq();
    /** Route the register unit's forwards in emission order. */
    void drainRegs();
    /** The in-flight block `seq` a unit is sending for (panics if
     *  it was flushed: units drop a flushed block's work first). */
    const BlockCtx &senderCtx(DynBlockSeq seq);
    /**
     * Send a value from `src` to a producer's targets: those of an
     * instruction or register read of `ctx`'s block, with their mesh
     * positions from its placement.
     */
    void sendToTargets(Cycle when, net::Coord src, const BlockCtx &ctx,
                       const std::array<isa::Target, isa::kMaxTargets>
                           &targets,
                       const compiler::Placement::Dests &dests,
                       Word value, ValState state, std::uint32_t wave,
                       std::uint16_t depth, bool status_only,
                       bool echo);

    /**
     * Send on the status mesh when `status_only`, else on the operand
     * mesh; `fill(Msg &)` writes the message in its queue slot.
     */
    template <typename Fill>
    void
    meshSend(Cycle when, net::Coord src, net::Coord dst,
             bool status_only, Fill &&fill)
    {
        (status_only ? *_gcn : *_mesh).emplace(when, src, dst, fill);
    }
    void onViolation(const lsq::Violation &violation);

    /** @return true iff fetch did anything (started or mapped). */
    bool fetchTick(Cycle now);
    void mapFetchedBlock(Cycle now);
    /** @return true iff a block committed this cycle. */
    bool commitTick(Cycle now);

    /**
     * The two cycle-loop engines behind run(): the original
     * poll-every-cycle loop and the wake-list engine that jumps over
     * cycles in which nothing can happen. Both fill `res` with the
     * same values for the same machine and program (differentially
     * tested); exceptions propagate to run()'s handler.
     */
    void runTick(Cycle max_cycles, Result &res);
    void runEvent(Cycle max_cycles, Result &res);

    /**
     * Squash every block with seq >= from_seq; `lsq_flushed` when the
     * LSQ already squashed its part (a flush-recovery violation).
     */
    void flushFrom(DynBlockSeq from_seq, bool lsq_flushed = false);

    /** Release the block's frame on the nodes it mapped slots onto. */
    void clearFrame(const BlockCtx &ctx);

    /** Redirect fetch to the given block / architectural index. */
    void redirectFetch(BlockId next, std::uint64_t arch_idx);

    BlockCtx *findCtx(DynBlockSeq seq);
    /** Drop the block's _ctxBySeq entry; call before it leaves _inflight. */
    void retireCtx(const BlockCtx &ctx);

    /** Render the stuck-machine state (watchdog/livelock reports). */
    std::string machineDump(Cycle now);

    /** Build the graceful deadlock report (no commit for too long). */
    chaos::SimError watchdogDump(Cycle now);

    /** Build the livelock report (repeating commit-free activity). */
    chaos::SimError livelockDump(Cycle now);

    /** Digest of activity since the last livelock sample. */
    std::uint64_t activityDigest(bool *active);

    // --- configuration & substrate ----------------------------------------
    MachineConfig _cfg;
    const isa::Program &_prog;
    const pred::OracleDb *_oracle;
    StatSet &_stats;
    compiler::GridGeom _geom;
    std::vector<net::Coord> _nodePos; ///< mesh position per grid node

    /** Per static block; points at the shared image's cache when a
     *  ProgramImage was supplied, else at _ownPlacements. */
    const std::vector<compiler::Placement> *_placements = nullptr;
    std::vector<compiler::Placement> _ownPlacements;
    std::unique_ptr<chaos::ChaosEngine> _chaos;   ///< null = no chaos
    std::unique_ptr<chaos::InvariantChecker> _check; ///< null = off
    chaos::TraceRing _trace;
    mem::SparseMemory _dmem;
    std::unique_ptr<mem::Hierarchy> _hier;
    std::unique_ptr<net::Mesh<Msg>> _mesh; ///< operand network
    /** Status network for commit-wave messages (TRIPS GCN). */
    std::unique_ptr<net::Mesh<Msg>> _gcn;
    std::unique_ptr<pred::DependencePredictor> _policy;
    std::unique_ptr<pred::NextBlockPredictor> _nbp;
    std::unique_ptr<RegUnit> _regs;
    std::unique_ptr<lsq::LoadStoreQueue> _lsq;
    std::vector<ExecNode> _nodes;
    /**
     * Bit n set whenever node n may have work: set when an operand is
     * delivered to it or a block maps a slot onto it, cleared by
     * runEvent once hasWork() is false. Every node with work has its
     * bit set, so runEvent ticks only these nodes.
     */
    std::uint64_t _readyNodes = 0;

    // --- dynamic state -----------------------------------------------------
    FrameRing<BlockCtx> _inflight; ///< oldest first, numFrames slots
    static constexpr std::size_t kCtxIndex = 256;
    /**
     * findCtx's direct-mapped index: entry seq % kCtxIndex points at
     * the youngest in-flight block mapped with that residue, or is
     * null. Ring slots never move, so an entry stays valid until
     * retireCtx.
     */
    std::array<BlockCtx *, kCtxIndex> _ctxBySeq{};
    std::vector<unsigned> _freeFrames;
    DynBlockSeq _nextSeq = 1;
    std::uint64_t _nextArchIdx = 0;
    BlockId _nextFetch = 0;
    bool _fetchBusy = false;
    bool _fetchHalted = false;
    Cycle _fetchReady = 0;
    BlockId _fetchBlock = 0;
    bool _halted = false;
    Cycle _cycle = 0;
    Cycle _lastCommit = 0;
    chaos::LivelockDetector _livelock;
    /** Counter snapshot backing the livelock activity deltas. */
    std::uint64_t _llPrev[4] = {0, 0, 0, 0};
    std::uint64_t _committedBlocks = 0;
    std::uint64_t _committedInsts = 0;

    // --- statistics ---------------------------------------------------------
    Counter &_statCommittedBlocks;
    Counter &_statCommittedInsts;
    Counter &_statCtrlFlushes;
    Counter &_statViolFlushes;
    Counter &_statFetchedBlocks;
};

} // namespace edge::core

#endif // EDGE_CORE_PROCESSOR_HH
