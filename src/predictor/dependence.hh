/**
 * @file
 * Load/store dependence speculation policies. The LSQ consults the
 * active policy whenever a load's address becomes ready: may the
 * load issue now, or must it wait for (some of) the older in-flight
 * stores whose addresses are still unknown?
 *
 * Policies:
 *  - Blind:        always issue (maximum speculation);
 *  - Conservative: wait until every older store has resolved
 *                  (no speculation, no violations);
 *  - StoreSets:    Chrysos & Emer's store-set predictor — "the best
 *                  dependence predictor proposed to date" the paper
 *                  compares DSRE against;
 *  - Oracle:       the paper's perfect oracle, which issues each
 *                  load as early as is provably safe.
 */

#ifndef EDGE_PREDICTOR_DEPENDENCE_HH
#define EDGE_PREDICTOR_DEPENDENCE_HH

#include <bit>
#include <cstddef>
#include <memory>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace edge::pred {

class OracleDb;

/** Which dependence policy the machine runs. */
enum class DepPolicy
{
    Blind,
    Conservative,
    StoreSets,
    Oracle,
};

const char *depPolicyName(DepPolicy policy);

/** An older in-flight store whose address is not yet known. */
struct UnresolvedStore
{
    DynBlockSeq seq = 0;       ///< dynamic block instance
    std::uint64_t archIdx = 0; ///< architectural block index
    BlockId block = 0;
    Lsid lsid = 0;
};

/** A specific older store instance a load was told to respect. */
struct CapturedDep
{
    bool valid = false;
    DynBlockSeq seq = 0;
    Lsid lsid = 0;
};

/**
 * The part of one in-flight block of the LSQ window that a policy
 * may read. The LSQ's ring entries start with this record.
 */
struct WindowBlock
{
    DynBlockSeq seq = 0;
    std::uint64_t archIdx = 0;
    BlockId blockId = 0;
    /** Bit l set iff store LSID l has not resolved its address. */
    std::uint32_t unresolved = 0;
};

/**
 * The older stores of a ready load whose addresses are still unknown,
 * oldest first: a view over the LSQ's ring of blocks, read in place.
 * It spans `count` blocks from ring slot `head`. The last is the
 * load's own block, whose mask is cut to `last_mask` (the LSIDs below
 * the load's). Ring entries lie `stride` bytes apart, each starting
 * with its WindowBlock. Valid until the LSQ next changes.
 */
class OlderStores
{
  public:
    OlderStores() = default;
    OlderStores(const WindowBlock *ring, std::size_t stride,
                unsigned ring_size, unsigned head, unsigned count,
                std::uint32_t last_mask)
        : _ring(ring),
          _stride(stride),
          _size(ring_size),
          _head(head),
          _count(count),
          _lastMask(last_mask)
    {
    }

    /** Is any older store unresolved? */
    bool
    any() const
    {
        for (unsigned a = 0; a < _count; ++a)
            if (mask(a))
                return true;
        return false;
    }

    /** Is the store instance (seq, lsid) among them? */
    bool
    contains(DynBlockSeq seq, Lsid lsid) const
    {
        for (unsigned a = 0; a < _count; ++a)
            if (block(a).seq == seq)
                return (mask(a) >> lsid) & 1;
        return false;
    }

    /**
     * Call f(const UnresolvedStore &) on each, oldest first, until it
     * returns true. @return whether it did
     */
    template <typename F>
    bool
    anyOf(F &&f) const
    {
        for (unsigned a = 0; a < _count; ++a) {
            const WindowBlock &b = block(a);
            for (std::uint32_t m = mask(a); m; m &= m - 1) {
                auto lsid = static_cast<Lsid>(std::countr_zero(m));
                if (f(UnresolvedStore{b.seq, b.archIdx, b.blockId, lsid}))
                    return true;
            }
        }
        return false;
    }

  private:
    const WindowBlock &
    block(unsigned age) const
    {
        unsigned slot = _head + age;
        if (slot >= _size)
            slot -= _size;
        return *reinterpret_cast<const WindowBlock *>(
            reinterpret_cast<const char *>(_ring) + slot * _stride);
    }

    std::uint32_t
    mask(unsigned age) const
    {
        std::uint32_t m = block(age).unresolved;
        return age + 1 == _count ? m & _lastMask : m;
    }

    const WindowBlock *_ring = nullptr;
    std::size_t _stride = sizeof(WindowBlock);
    unsigned _size = 0;
    unsigned _head = 0;
    unsigned _count = 0;
    std::uint32_t _lastMask = 0;
};

/** Everything the policy may inspect about a ready load. */
struct LoadQuery
{
    DynBlockSeq seq = 0;
    std::uint64_t archIdx = 0;
    BlockId block = 0;
    Lsid lsid = 0;
    Addr addr = 0;
    unsigned bytes = 0;
    /** Older stores with unknown addresses. */
    OlderStores older;
    /** Dependence captured at map time (store-set style). */
    CapturedDep dep;
};

class DependencePredictor
{
  public:
    virtual ~DependencePredictor() = default;

    /** True if the load must keep waiting; re-queried on changes. */
    virtual bool loadMustWait(const LoadQuery &query) = 0;

    /** A store entered the window (block mapped). */
    virtual void
    onStoreMapped(DynBlockSeq seq, BlockId block, Lsid lsid)
    {
    }

    /**
     * A load entered the window. Store-set style predictors read
     * the last-fetched-store table *here* (fetch order), returning
     * the specific older store instance the load must respect.
     */
    virtual CapturedDep
    onLoadMapped(DynBlockSeq seq, BlockId block, Lsid lsid)
    {
        return {};
    }

    /** A store's address (and data) became known. */
    virtual void
    onStoreResolved(DynBlockSeq seq, BlockId block, Lsid lsid)
    {
    }

    /** A dependence violation was detected; train the predictor. */
    virtual void
    onViolation(BlockId load_block, Lsid load_lsid, BlockId store_block,
                Lsid store_lsid)
    {
    }

    /** Blocks with seq >= from_seq were squashed. */
    virtual void
    onFlush(DynBlockSeq from_seq)
    {
    }

    virtual const char *name() const = 0;
};

/**
 * Factory.
 * @param oracle required (non-null) only for DepPolicy::Oracle
 */
std::unique_ptr<DependencePredictor>
makeDependencePredictor(DepPolicy policy, const OracleDb *oracle,
                        StatSet &stats);

} // namespace edge::pred

#endif // EDGE_PREDICTOR_DEPENDENCE_HH
