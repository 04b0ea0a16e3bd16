#include "predictor/oracle.hh"

#include "common/logging.hh"

namespace edge::pred {

OracleDb::OracleDb(const std::vector<compiler::BlockTrace> &trace)
{
    _blocks.reserve(trace.size());
    for (const auto &bt : trace) {
        BlockEntry e;
        e.block = bt.block;
        e.exitIndex = static_cast<unsigned>(bt.exitIndex);
        e.memOps.reserve(bt.memOps.size());
        for (const auto &m : bt.memOps)
            e.memOps.push_back({m.isStore, m.addr, m.bytes});
        _blocks.push_back(std::move(e));
    }
}

BlockId
OracleDb::blockAt(std::uint64_t arch_idx) const
{
    if (arch_idx >= _blocks.size())
        return kInvalidBlock;
    return _blocks[arch_idx].block;
}

unsigned
OracleDb::exitAt(std::uint64_t arch_idx) const
{
    panic_if(arch_idx >= _blocks.size(), "exitAt beyond trace");
    return _blocks[arch_idx].exitIndex;
}

const OracleDb::MemOp *
OracleDb::memOp(std::uint64_t arch_idx, Lsid lsid) const
{
    if (arch_idx >= _blocks.size())
        return nullptr;
    const auto &ops = _blocks[arch_idx].memOps;
    if (lsid >= ops.size())
        return nullptr;
    return &ops[lsid];
}

OraclePredictor::OraclePredictor(const OracleDb &db, StatSet &stats)
    : _db(db),
      _waits(stats.counter("oracle.waits",
                           "loads held for a truly conflicting store")),
      _offPath(stats.counter("oracle.off_path",
                             "oracle queries from wrong-path blocks"))
{
}

bool
OraclePredictor::loadMustWait(const LoadQuery &query)
{
    // A wrong-path block does not match the committed trace: let it
    // speculate freely, it will be squashed.
    if (_db.blockAt(query.archIdx) != query.block) {
        ++_offPath;
        return false;
    }
    bool wait = query.older.anyOf([&](const UnresolvedStore &st) {
        if (_db.blockAt(st.archIdx) != st.block)
            return false; // wrong-path store: its block will be squashed
        const OracleDb::MemOp *op = _db.memOp(st.archIdx, st.lsid);
        return op && op->isStore &&
               rangesOverlap(op->addr, op->bytes, query.addr, query.bytes);
    });
    if (wait)
        ++_waits;
    return wait;
}

} // namespace edge::pred
