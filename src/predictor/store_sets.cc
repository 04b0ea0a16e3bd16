#include "predictor/store_sets.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edge::pred {

StoreSetsPredictor::StoreSetsPredictor(const StoreSetsParams &params,
                                       StatSet &stats)
    : _p(params),
      _ssit(_p.ssitSize, kNoSet),
      _lfst(_p.lfstSize),
      _waits(stats.counter("storesets.waits",
                           "loads delayed by a store-set match")),
      _trainings(stats.counter("storesets.trainings",
                               "violation-driven set assignments"))
{
    fatal_if(_p.ssitSize == 0 || (_p.ssitSize & (_p.ssitSize - 1)),
             "SSIT size must be a power of two");
    fatal_if(_p.lfstSize == 0, "LFST must be nonempty");
}

std::size_t
StoreSetsPredictor::ssitIndex(BlockId block, Lsid lsid) const
{
    std::uint64_t h = (static_cast<std::uint64_t>(block) << 6) ^
                      (static_cast<std::uint64_t>(lsid) * 0x85ebca6bULL);
    h *= 0x9e3779b97f4a7c15ULL;
    return (h >> 32) & (_p.ssitSize - 1);
}

std::uint32_t
StoreSetsPredictor::allocateSet()
{
    std::uint32_t id = _nextSet;
    _nextSet = (_nextSet + 1) % static_cast<std::uint32_t>(_p.lfstSize);
    return id;
}

bool
StoreSetsPredictor::hasSet(BlockId block, Lsid lsid) const
{
    return _ssit[ssitIndex(block, lsid)] != kNoSet;
}

CapturedDep
StoreSetsPredictor::onLoadMapped(DynBlockSeq seq, BlockId block,
                                 Lsid lsid)
{
    // Chrysos & Emer read the LFST at dispatch: the load depends on
    // the youngest store of its set fetched *before* it.
    std::uint32_t set = _ssit[ssitIndex(block, lsid)];
    if (set == kNoSet)
        return {};
    const LfstEntry &last = _lfst[set];
    if (!last.valid)
        return {};
    return {true, last.seq, last.lsid};
}

bool
StoreSetsPredictor::loadMustWait(const LoadQuery &query)
{
    if (!query.dep.valid)
        return false;
    // Wait while the captured store instance is still an older,
    // unresolved in-flight store.
    if (!query.older.contains(query.dep.seq, query.dep.lsid))
        return false;
    ++_waits;
    return true;
}

void
StoreSetsPredictor::onStoreMapped(DynBlockSeq seq, BlockId block,
                                  Lsid lsid)
{
    std::uint32_t set = _ssit[ssitIndex(block, lsid)];
    if (set == kNoSet)
        return;
    _lfst[set] = {true, seq, lsid};
}

void
StoreSetsPredictor::onStoreResolved(DynBlockSeq seq, BlockId block,
                                    Lsid lsid)
{
    std::uint32_t set = _ssit[ssitIndex(block, lsid)];
    if (set == kNoSet)
        return;
    LfstEntry &last = _lfst[set];
    if (last.valid && last.seq == seq && last.lsid == lsid)
        last.valid = false;
}

void
StoreSetsPredictor::onViolation(BlockId load_block, Lsid load_lsid,
                                BlockId store_block, Lsid store_lsid)
{
    ++_trainings;
    std::size_t li = ssitIndex(load_block, load_lsid);
    std::size_t si = ssitIndex(store_block, store_lsid);
    std::uint32_t lset = _ssit[li];
    std::uint32_t sset = _ssit[si];
    if (lset == kNoSet && sset == kNoSet) {
        std::uint32_t set = allocateSet();
        _ssit[li] = set;
        _ssit[si] = set;
    } else if (lset == kNoSet) {
        _ssit[li] = sset;
    } else if (sset == kNoSet) {
        _ssit[si] = lset;
    } else {
        // Merge: both adopt the smaller set id (Chrysos & Emer).
        std::uint32_t m = std::min(lset, sset);
        _ssit[li] = m;
        _ssit[si] = m;
    }
}

void
StoreSetsPredictor::onFlush(DynBlockSeq from_seq)
{
    for (LfstEntry &e : _lfst)
        if (e.valid && e.seq >= from_seq)
            e.valid = false;
}

} // namespace edge::pred
