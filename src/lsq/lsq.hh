/**
 * @file
 * The load/store queue: the component the DSRE protocol revolves
 * around. It tracks every in-flight memory operation in (dynamic
 * block, LSID) program order, performs byte-accurate store-to-load
 * forwarding, detects dependence violations when a store resolves
 * under an already-performed younger load, and drives both recovery
 * mechanisms:
 *
 *  - flush recovery: report the violation so the core can flush the
 *    offending load's block and everything younger;
 *  - DSRE recovery: simply re-send the load's corrected value as a
 *    new speculative wave, letting the dataflow graph selectively
 *    re-execute only the dependent instructions.
 *
 * It also originates the commit wave: a load's value becomes Final
 * exactly when its address is Final and no older in-flight store is
 * still unresolved or non-final; the LSQ sends state-upgrade replies
 * as that frontier advances.
 *
 * Physically the LSQ is banked (one bank per grid row, co-located
 * with the L1D banks); we model bank port contention and routing but
 * keep the search structure logically unified, a simplification
 * documented in DESIGN.md. That structure is flat: a ring of blocks
 * with LSID-indexed entries and per-block bitmaps, plus a word-address
 * index of resolved stores and performed loads (DESIGN.md "The
 * load/store queue").
 */

#ifndef EDGE_LSQ_LSQ_HH
#define EDGE_LSQ_LSQ_HH

#include <array>
#include <bit>
#include <set>
#include <vector>

#include "chaos/chaos.hh"
#include "chaos/invariants.hh"
#include "common/frame_ring.hh"
#include "common/stats.hh"
#include "isa/block.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"
#include "predictor/dependence.hh"

namespace edge::lsq {

/** How misspeculation is repaired. */
enum class Recovery
{
    Flush, ///< flush the load's block and younger, refetch
    Dsre,  ///< distributed selective re-execution (the paper)
};

const char *recoveryName(Recovery recovery);

struct LsqParams
{
    Recovery recovery = Recovery::Dsre;
    unsigned lsqLatency = 1; ///< bank search latency (cycles)
    /**
     * Under flush recovery, treat any store resolving under an
     * already-performed overlapping younger load as a violation
     * (address-based detection, like real flush machines). When
     * false, only value-changing conflicts count (idealised).
     */
    bool addrBasedViolations = true;
    /**
     * DSRE storm throttle: after this many corrective resends of one
     * load instance, further corrections are deferred until the
     * value is Final (it then rides the commit wave). Bounds the
     * wave amplification of deep same-address store chains; 0
     * disables the budget (ablation).
     */
    unsigned maxResendsPerLoad = 4;
    /**
     * Charge a full LSQ bank port for commit-wave (status-only)
     * upgrade replies. Off by default: upgrades carry no data, so
     * hardware can batch them on a narrow status path. Ablation
     * knob for the commit-wave cost experiment.
     */
    bool chargeUpgradePorts = false;

    /**
     * Second application of the DSRE protocol (the paper evaluates
     * dependence speculation as "one application"): value-predict
     * loads that miss far enough in the cache hierarchy. The LSQ
     * replies immediately with the last value seen at the address
     * (Spec), and the real value rides behind as a corrective wave
     * (or a cheap upgrade when the prediction was right). Requires
     * DSRE recovery.
     */
    bool valuePredictMisses = false;
    /** Only predict when the access takes longer than this. */
    unsigned vpLatencyThreshold = 8;
    /** Entries in the direct-mapped last-value table. */
    std::size_t vpTableSize = 1024;
};

/**
 * A load reply / resend / upgrade the core must put on the network,
 * to the targets of the load instruction in slot `slot`.
 */
struct LoadReply
{
    Cycle when = 0;            ///< earliest cycle the reply may leave
    Addr addr = 0;             ///< for bank routing
    DynBlockSeq seq = 0;
    Word value = 0;
    std::uint32_t wave = 0;
    SlotId slot = 0;           ///< the load instruction's slot
    Lsid lsid = 0;
    std::uint16_t depth = 0;
    ValState state = ValState::Spec;
    bool statusOnly = false; ///< commit-wave upgrade (same value)
    /**
     * Deliberate same-value resend — a chaos-injected echo wave or a
     * value-prediction confirmation. The value-identity-squash
     * invariant must not flag it.
     */
    bool echo = false;
};

/** A detected dependence violation (flush recovery consumes this). */
struct Violation
{
    DynBlockSeq loadSeq = 0;
    BlockId loadBlock = 0;
    Lsid loadLsid = 0;
    DynBlockSeq storeSeq = 0;
    BlockId storeBlock = 0;
    Lsid storeLsid = 0;
};

class LoadStoreQueue
{
  public:
    /**
     * @param params configuration
     * @param hierarchy timing for D-cache accesses (not owned)
     * @param memory architectural memory contents (not owned)
     * @param policy active dependence policy (not owned)
     * @param stats counters
     * @param num_frames the most blocks ever in flight at once
     * @param chaos optional fault injector (not owned): delays store
     *        resolution and forces spurious corrective re-fire waves
     * @param check optional invariant checker (not owned), fed with
     *        the LSQ's shadow state and every outgoing reply
     */
    LoadStoreQueue(const LsqParams &params, mem::Hierarchy *hierarchy,
                   mem::SparseMemory *memory,
                   pred::DependencePredictor *policy, StatSet &stats,
                   unsigned num_frames,
                   chaos::ChaosEngine *chaos = nullptr,
                   chaos::InvariantChecker *check = nullptr);

    /**
     * A block entered the window: allocate its LSID entries. Each
     * entry takes its size and slot from the static instruction.
     */
    void mapBlock(DynBlockSeq seq, std::uint64_t arch_idx,
                  BlockId block_id, const isa::Block &block);

    /**
     * A load's address arrived (first execution, an address-changing
     * re-execution, or a state upgrade of the address).
     */
    void loadRequest(Cycle now, DynBlockSeq seq, Lsid lsid, Addr addr,
                     ValState addr_state, std::uint32_t wave,
                     std::uint16_t depth);

    /** A store's address and data arrived (or changed / upgraded). */
    void storeResolve(Cycle now, DynBlockSeq seq, Lsid lsid, Addr addr,
                      Word data, ValState addr_state,
                      ValState data_state, std::uint32_t wave,
                      std::uint16_t depth);

    /** All memory ops of the block performed / resolved and Final? */
    bool blockMemFinal(DynBlockSeq seq) const;

    /** Commit: drain stores to memory/D-cache and free the entries. */
    void commitBlock(Cycle now, DynBlockSeq seq);

    /** Squash every block with seq >= from_seq. */
    void flushFrom(DynBlockSeq from_seq);

    /**
     * Replies / resends / upgrades in emission order; the owner routes
     * and clears them after each loadRequest and storeResolve.
     */
    std::vector<LoadReply> &replies() { return _replies; }

    /**
     * Violations flush recovery must repair (never under DSRE). The
     * LSQ already squashed the load's block and younger itself; the
     * owner squashes the rest of the machine and clears the list.
     */
    std::vector<Violation> &flushRequests() { return _flushRequests; }

    /** In-flight blocks currently tracked (for asserts/tests). */
    std::size_t numBlocks() const { return _ring.size(); }

    /** Total violations detected so far. */
    std::uint64_t violations() const { return _violations.value(); }

    /** Human-readable dump of non-final entries (deadlock debug). */
    std::string debugState() const;

    /** Value predictions issued / proven correct (vp extension). */
    std::uint64_t vpPredictions() const { return _vpPredictions.value(); }
    std::uint64_t vpCorrect() const { return _vpCorrect.value(); }

  private:
    using Mask = std::uint32_t; ///< one bit per LSID of a block
    static_assert(isa::kMaxBlockMemOps <= 32, "one Mask bit per LSID");

    struct MemEntry
    {
        std::uint8_t bytes = 0; ///< static, filled at map time
        SlotId slot = 0;

        // Store state. Address and data finality travel separately:
        // a load can finalise once every older store has a Final
        // address, even while non-overlapping store *data* is still
        // speculative.
        Addr addr = 0; ///< loads too, once a request arrived
        Word data = 0;
        ValState state = ValState::Spec;  ///< data state
        ValState addrSt = ValState::Spec; ///< address state

        /** Drop stale (cross-network reordered) incoming messages. */
        std::uint32_t inWave = 0;

        // Load state.
        bool addrKnown = false;    ///< a request has arrived
        bool deferred = false;     ///< resend budget exhausted
        std::uint8_t resends = 0;  ///< corrective resends so far
        ValState addrState = ValState::Spec;
        Word lastValue = 0;
        ValState lastState = ValState::Spec;
        /** A later reply (e.g. a status upgrade) must never arrive
         *  before an earlier data reply on the same link. */
        Cycle lastReplyWhen = 0;
        std::uint32_t replyWave = 0;
        std::uint16_t depth = 0;
        /** Store-set dependence captured when the block mapped. */
        pred::CapturedDep dep;
    };

    /**
     * One in-flight block. The head (seq, archIdx, blockId and the
     * `unresolved` store mask) is the part policies read in place,
     * through pred::OlderStores.
     */
    struct Block : pred::WindowBlock
    {
        Mask ops = 0;        ///< every LSID of the block
        Mask stores = 0;     ///< static: which LSIDs are stores
        Mask specAddr = 0;   ///< DSRE: stores without a Final address
        Mask specData = 0;   ///< DSRE: stores without Final data
        Mask performed = 0;  ///< loads that have replied
        Mask spec = 0;       ///< DSRE: performed, reply still Spec
        /**
         * DSRE: Spec loads the sweep must examine. A Spec load behind
         * the finality frontier without its bit fails dataFinal.
         * performLoad sets a bit when it leaves a load Spec, a store
         * whose data turns Final sets the bits of the loads on its
         * words, and the sweep clears each bit it examines.
         */
        Mask recheck = 0;
        Mask waiting = 0;    ///< loads held back by the policy
        std::array<MemEntry, isa::kMaxBlockMemOps> entries;
    };

    /** A performed load hit by a store change (see storeChanged). */
    struct Hit
    {
        DynBlockSeq seq;
        Lsid lsid;
        bool value_changed;
    };

    static Mask bit(Lsid lsid) { return Mask{1} << lsid; }
    static Mask below(Lsid lsid) { return bit(lsid) - 1; }
    static Lsid low(Mask m) { return Lsid(std::countr_zero(m)); }

    /** The block `age` places from the oldest (0 = oldest). */
    Block &at(unsigned age) const { return _ring.at(age); }
    /** The in-flight block with this seq, or null (flushed). */
    Block *findBlock(DynBlockSeq seq) const { return _ring.find(seq); }
    /** Program-order key: block age, then LSID (until a pop). */
    std::uint32_t ageKey(const Block &b, Lsid lsid) const
    {
        return std::uint32_t(_ring.ageOf(b)) << 5 | lsid;
    }
    /** The same key for an address-index id (ring slot << 5 | LSID). */
    std::uint32_t idKey(std::uint16_t id) const
    {
        return std::uint32_t(_ring.ageOfSlot(id >> 5)) << 5 | (id & 31);
    }

    std::uint32_t bucketOf(Addr word) const
    {
        return static_cast<std::uint32_t>((word ^ (word >> 12)) & _indexMask);
    }
    /** Words [addr, +bytes) touches beyond the first (0 or 1). */
    static unsigned straddles(Addr addr, unsigned bytes)
    {
        return (addr & 7) + bytes > 8;
    }
    /**
     * Call f(id) for each op id indexed on the buckets of the words
     * [addr, +bytes) touches. An op on both words, or two words
     * sharing a bucket, repeats.
     */
    template <typename F>
    void forIds(Addr addr, unsigned bytes, F &&f) const
    {
        Addr word = addr >> 3;
        for (Addr w = word; w <= word + straddles(addr, bytes); ++w) {
            for (std::uint32_t n = _bucketHead[bucketOf(w)]; n != kNil;
                 n = _links[n].next)
                f(static_cast<std::uint16_t>(n >> 1));
        }
    }
    /** Add / remove an op's words in the address index. */
    void index(const Block &b, Lsid lsid, bool add);
    void unindexBlock(const Block &b);
    /** Add the sorted, unique age keys of indexed ops on the range's
     *  words to `out`. */
    void gather(Addr addr, unsigned bytes,
                std::vector<std::uint32_t> &out) const;

    /** A performed load's current value; `*from_mem` when some byte
     *  comes from memory rather than an older store. */
    Word computeLoadValue(const Block &b, Lsid lsid,
                          bool *from_mem = nullptr) const;

    /** True when every byte can come only from final sources. */
    bool loadIsFinal(const Block &b, Lsid lsid) const;
    /**
     * The part of loadIsFinal that does not depend on the frontier:
     * the load's address is Final and no older resolved store on its
     * range has Spec data.
     */
    bool dataFinal(const Block &b, Lsid lsid) const;
    /** Mark the Spec loads on [addr, +bytes)'s words for the sweep. */
    void recheckLoadsOn(Addr addr, unsigned bytes);

    /** Older unresolved stores (policy query input), viewed in place. */
    pred::OlderStores olderStores(const Block &b, Lsid lsid) const;

    /** Try to issue a load now (policy permitting); send the reply. */
    void tryIssueLoad(Cycle now, Block &b, Lsid lsid);
    /** Actually perform the load and send (or re-send) its reply;
     *  `final_now` is loadIsFinal(b, lsid). */
    void performLoad(Cycle now, Block &b, Lsid lsid, bool is_resend,
                     std::uint16_t depth, bool final_now);

    /** A store changed: find the younger performed loads it hits. */
    void storeChanged(Cycle now, const Block &sb, Lsid lsid,
                      Addr old_addr, bool had_old, std::uint16_t depth);

    /** Advance the commit wave: upgrade now-final performed loads. */
    void sweepFinality(Cycle now);
    /** Chaos: re-fire one Spec load as a transient wrong value,
     *  corrected by a second wave (a forced spurious violation). */
    void injectSpuriousWave(Cycle now);

    /** Append a reply to the outbox; fills the entry's link fields. */
    LoadReply &emitReply(Block &b, Lsid lsid, Cycle when, Word value,
                         ValState state, std::uint16_t depth);
    /** Charge a bank port; returns the cycle processing may start. */
    Cycle bankPort(Cycle now, Addr addr);

    LsqParams _p;
    /** DSRE carries Spec/Final states; flush recovery does not. */
    bool _spec;
    mem::Hierarchy *_hier;
    mem::SparseMemory *_mem;
    pred::DependencePredictor *_policy;
    chaos::ChaosEngine *_chaos;
    chaos::InvariantChecker *_check;

    mutable FrameRing<Block> _ring; ///< num_frames blocks
    unsigned _numWaiting = 0;       ///< set bits of every waiting mask
    /**
     * The word-address index: hashed word buckets, each the head of
     * an intrusive doubly linked list of link nodes. An op id (ring
     * slot << 5 | LSID) owns two nodes, id << 1 | k for the k-th word
     * its range touches, preallocated for the whole window, so
     * indexing never allocates.
     */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kUnlinked = kNil - 1;
    struct Link
    {
        std::uint32_t prev = kUnlinked;
        std::uint32_t next = kUnlinked;
    };
    std::vector<std::uint32_t> _bucketHead;
    std::vector<Link> _links;
    Addr _indexMask = 0;

    std::vector<LoadReply> _replies;
    std::vector<Violation> _flushRequests;

    // Scratch buffers reused across calls; no user re-enters.
    mutable std::vector<std::uint32_t> _valueKeys; ///< computeLoadValue
    std::vector<std::uint32_t> _hitKeys;           ///< storeChanged
    std::vector<Hit> _hitsScratch;                 ///< storeChanged
    std::vector<Cycle> _bankFree; ///< per-bank port availability

    /** Last-value table for the miss value-prediction extension. */
    struct VpEntry
    {
        Addr addr = ~Addr{0};
        Word value = 0;
    };
    std::vector<VpEntry> _vpTable;

    /**
     * Forward-progress guarantee for flush recovery: a dynamic load
     * (architectural block index, LSID) that caused a violation is
     * replayed conservatively exactly once after the flush — the
     * moral equivalent of the Alpha 21264 store-wait bit. Without
     * it, a blindly speculating flush machine livelocks on
     * intra-block store-to-load aliases (the deterministic replay
     * violates identically forever).
     */
    std::set<std::pair<std::uint64_t, Lsid>> _replayHolds;

    Counter &_loads;
    Counter &_stores;
    Counter &_forwards;
    Counter &_violations;
    Counter &_resends;
    Counter &_upgrades;
    Counter &_policyHolds;
    Counter &_replayWaits;
    Counter &_deferrals;
    Counter &_vpPredictions;
    Counter &_vpCorrect;
    Histogram &_violationDistance;
};

} // namespace edge::lsq

#endif // EDGE_LSQ_LSQ_HH
