#include "core/exec_node.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::core {

namespace {

/** What an issued op of this opcode sends. */
NodeEvent::Kind
eventKind(isa::Opcode op)
{
    const isa::OpInfo &info = isa::opInfo(op);
    if (info.isLoad)
        return NodeEvent::Kind::LoadRequest;
    if (info.isStore)
        return NodeEvent::Kind::StoreResolve;
    if (info.isBranch)
        return NodeEvent::Kind::Exit;
    return NodeEvent::Kind::Result;
}

} // namespace

ExecNode::ExecNode(const CoreParams &params, NodeStats stats,
                   chaos::ChaosEngine *chaos, unsigned node_index)
    : _p(params),
      _stats(stats),
      _chaos(chaos),
      _nodeIndex(node_index),
      _numSlots(params.slotsPerNode * params.numFrames),
      _flags(_numSlots, 0),
      _seen(_numSlots, 0),
      _full(_numSlots, 0),
      _seq(_numSlots, 0),
      _slotId(_numSlots, 0),
      _slots(_numSlots),
      _wantAlu{std::vector<std::uint64_t>((_numSlots + 63) / 64, 0)},
      _wantUpgrade{std::vector<std::uint64_t>((_numSlots + 63) / 64, 0)}
{
    for (std::size_t op = 0; op < _latency.size(); ++op)
        _latency[op] = _p.execLatency(static_cast<isa::Opcode>(op));
}

bool
ExecNode::mutated(chaos::Mutation m) const
{
#ifdef EDGE_MUTATIONS
    return _chaos && _chaos->mutation() == m &&
           (_chaos->mutationNode() == ~0u ||
            _chaos->mutationNode() == _nodeIndex);
#else
    (void)m;
    return false;
#endif
}

unsigned
ExecNode::at(unsigned frame, unsigned local) const
{
    panic_if(frame >= _p.numFrames || local >= _p.slotsPerNode,
             "RS index (%u, %u) out of range", frame, local);
    return frame * _p.slotsPerNode + local;
}

ValState
ExecNode::inputState(const Slot &c) const
{
    ValState s = ValState::Final;
    for (unsigned k = 0; k < c.numOps; ++k)
        s = andState(s, c.opState[k]);
    return s;
}

void
ExecNode::WantSet::set(unsigned rs)
{
    std::uint64_t &w = words[rs >> 6];
    std::uint64_t mask = std::uint64_t{1} << (rs & 63);
    count += !(w & mask);
    w |= mask;
}

void
ExecNode::WantSet::clear(unsigned rs)
{
    std::uint64_t &w = words[rs >> 6];
    std::uint64_t mask = std::uint64_t{1} << (rs & 63);
    count -= (w & mask) != 0;
    w &= ~mask;
}

void
ExecNode::WantSet::clearRange(unsigned lo, unsigned hi)
{
    for (unsigned w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
        // The range's bits within word w.
        unsigned from = std::max(lo, w * 64) - w * 64;
        unsigned to = std::min(hi, w * 64 + 64) - w * 64;
        std::uint64_t mask =
            to - from == 64
                ? ~std::uint64_t{0}
                : ((std::uint64_t{1} << (to - from)) - 1) << from;
        // Few bits are set, and std::popcount is a libgcc call
        // without -mpopcnt.
        for (std::uint64_t b = words[w] & mask; b; b &= b - 1)
            --count;
        words[w] &= ~mask;
    }
}

void
ExecNode::mapInst(unsigned frame, unsigned local, DynBlockSeq seq,
                  SlotId slot, const isa::Instruction &inst)
{
    unsigned rs = at(frame, local);
    panic_if(_flags[rs] & kValid, "mapping into an occupied RS slot");
    auto n = static_cast<std::uint8_t>(inst.numOperands());
    _flags[rs] = kValid;
    _seen[rs] = 0;
    _full[rs] = static_cast<std::uint8_t>((1u << n) - 1);
    _seq[rs] = seq;
    _slotId[rs] = slot;

    Slot &c = _slots[rs];
    c.imm = inst.imm;
    c.latency = _latency[static_cast<std::size_t>(inst.op)];
    c.lsid = inst.lsid;
    c.op = inst.op;
    c.kind = eventKind(inst.op);
    c.numOps = n;
    c.opWave = {};
    c.sendCount = 0;
    c.lastSendWhen = 0;
    c.triggerDepth = 0;
    // A zero-operand slot is ready at once.
    if (n == 0)
        _wantAlu.set(rs);
}

void
ExecNode::clearFrame(unsigned frame)
{
    unsigned lo = frame * _p.slotsPerNode;
    unsigned hi = lo + _p.slotsPerNode;
    std::fill(_flags.begin() + lo, _flags.begin() + hi, 0);
    _wantAlu.clearRange(lo, hi);
    _wantUpgrade.clearRange(lo, hi);
}

bool
ExecNode::deliver(unsigned frame, unsigned local, unsigned operand,
                  Word value, ValState state, std::uint32_t wave,
                  std::uint16_t depth)
{
    unsigned rs = at(frame, local);
    panic_if(!(_flags[rs] & kValid),
             "operand delivered to an empty RS slot");
    Slot &c = _slots[rs];
    panic_if(operand >= c.numOps, "operand %u out of range for %s",
             operand, isa::opName(c.op));

    if (wave <= c.opWave[operand])
        return false; // stale wave: the producer has sent newer data
    c.opWave[operand] = wave;

    bool first = !(_seen[rs] & (1u << operand));
    ValState prev_state = first ? ValState::Spec : c.opState[operand];
    bool value_changed = first || c.opVal[operand] != value;

    panic_if(!first && prev_state == ValState::Final && value_changed,
             "protocol violation: Final operand changed value "
             "(seq %llu slot %u op %u)",
             static_cast<unsigned long long>(_seq[rs]), _slotId[rs],
             operand);

    // Final is sticky.
    ValState next_state = state;
    if (prev_state == ValState::Final)
        next_state = ValState::Final;

    _seen[rs] |= static_cast<std::uint8_t>(1u << operand);
    c.opVal[operand] = value;
    c.opState[operand] = next_state;

    std::uint8_t f = _flags[rs];
    if (!(f & kExecuted)) {
        // First execution once every operand has arrived.
        if (_seen[rs] == _full[rs])
            _wantAlu.set(rs);
        return true;
    }
    // An executed slot has seen every operand: a changed value
    // re-fires it, a Spec -> Final upgrade re-sends its state.
    if (value_changed) {
        f |= kDirtyValue;
    } else if (prev_state != ValState::Final &&
               next_state == ValState::Final) {
        f |= kDirtyState;
    } else {
        return true;
    }
    _flags[rs] = f;
    c.triggerDepth = std::max<std::uint16_t>(
        c.triggerDepth, static_cast<std::uint16_t>(depth + 1));
    if ((f & kDirtyValue) || _p.commitWaveUsesAlu) {
        _wantUpgrade.clear(rs);
        _wantAlu.set(rs);
    } else {
        _wantUpgrade.set(rs);
    }
    return true;
}

NodeEvent &
ExecNode::emit(Cycle done, unsigned rs, Word value, ValState state,
               std::uint16_t depth)
{
    const Slot &c = _slots[rs];
    NodeEvent &ev = _events.emplace_back();
    ev.when = done;
    ev.seq = _seq[rs];
    ev.value = value;
    ev.wave = c.sendCount;
    ev.slot = _slotId[rs];
    ev.lsid = c.lsid;
    ev.depth = depth;
    ev.kind = c.kind;
    ev.state = state;
    if (c.kind == NodeEvent::Kind::LoadRequest) {
        ev.addr = isa::memEffAddr(c.opVal[0], c.imm);
    } else if (c.kind == NodeEvent::Kind::StoreResolve) {
        ev.addr = isa::memEffAddr(c.opVal[0], c.imm);
        ev.value = c.opVal[1];
        ev.addrState = c.opState[0];
        ev.state = c.opState[1];
    }
    return ev;
}

void
ExecNode::execute(Cycle now, unsigned rs, bool is_reexec)
{
    Slot &c = _slots[rs];
    Cycle done = now + c.latency;
    std::uint16_t depth = is_reexec ? c.triggerDepth : 0;

    Word value = 0;
    Word addr_key = 0; ///< identity key for the squash comparison
    Word data_key = 0;
    ValState state;
    ValState addr_state = ValState::Spec;
    switch (c.kind) {
      case NodeEvent::Kind::LoadRequest:
        addr_key = isa::memEffAddr(c.opVal[0], c.imm);
        state = addr_state = c.opState[0];
        break;
      case NodeEvent::Kind::StoreResolve:
        addr_key = isa::memEffAddr(c.opVal[0], c.imm);
        data_key = c.opVal[1];
        addr_state = c.opState[0];
        state = c.opState[1]; // data state travels separately
        break;
      default:
        value = isa::evalOp(c.op, c.opVal[0], c.opVal[1], c.opVal[2],
                            c.imm);
        addr_key = value;
        state = inputState(c);
        break;
    }

    ++_stats.issues;
    if (is_reexec) {
        ++_stats.reexecs;
        _stats.waveDepth.sample(depth);
    }

    bool executed = _flags[rs] & kExecuted;
    bool identical = executed && c.lastValue == addr_key &&
                     c.lastData == data_key && c.lastState == state &&
                     c.lastAddrState == addr_state;
    bool squash = identical && _p.squashIdenticalValues;
    // Deliberate protocol mutation: this node forgets to squash and
    // re-sends bit-identical waves. The invariant checker catches it
    // as `value-identity-squash`.
    if (squash && mutated(chaos::Mutation::SkipSquash))
        squash = false;
    if (squash)
        ++_stats.squashes;

    _flags[rs] = static_cast<std::uint8_t>(
        (_flags[rs] | kExecuted) & ~(kDirtyValue | kDirtyState));
    c.triggerDepth = 0;
    c.lastValue = addr_key;
    c.lastData = data_key;
    c.lastState = state;
    c.lastAddrState = addr_state;

    if (!squash) {
        ++c.sendCount;
        done = std::max(done, c.lastSendWhen);
        c.lastSendWhen = done;
        emit(done, rs, value, state, depth);
    }
}

void
ExecNode::upgrade(Cycle now, unsigned rs)
{
    Slot &c = _slots[rs];
    _flags[rs] &= static_cast<std::uint8_t>(~kDirtyState);
    std::uint16_t depth = c.triggerDepth;
    c.triggerDepth = 0;

    // Deliberate protocol mutation: this node swallows commit-wave
    // upgrades, so downstream finality never arrives and the commit
    // frontier stalls. Caught as `commit-progress` (watchdog).
    if (mutated(chaos::Mutation::DropUpgrade))
        return;

    if (c.kind == NodeEvent::Kind::StoreResolve) {
        // Stores propagate address and data finality independently:
        // a final address alone already un-blocks younger loads'
        // commit waves (they learn the store cannot move onto them).
        ValState as = c.opState[0];
        ValState ds = c.opState[1];
        if (as == c.lastAddrState && ds == c.lastState)
            return;
        c.lastAddrState = as;
        c.lastState = ds;
        ++_stats.upgrades;
        ++c.sendCount;
        Cycle when = std::max(now + 1, c.lastSendWhen);
        c.lastSendWhen = when;
        NodeEvent &ev = emit(when, rs, c.lastData, ds, depth);
        ev.addr = c.lastValue;
        ev.statusOnly = true;
        return;
    }

    bool load = c.kind == NodeEvent::Kind::LoadRequest;
    ValState state = load ? c.opState[0] : inputState(c);
    if (state != ValState::Final || c.lastState == ValState::Final)
        return;
    c.lastState = state;
    ++_stats.upgrades;
    ++c.sendCount;
    Cycle when = std::max(now + 1, c.lastSendWhen);
    c.lastSendWhen = when;
    NodeEvent &ev = emit(when, rs, c.lastValue, state, depth);
    if (load)
        ev.addr = c.lastValue; // lastValue holds the address key
    ev.statusOnly = true;
}

bool
ExecNode::tick(Cycle now)
{
    bool did = false;

    // ALU: one issue per cycle; oldest block first, then slot order.
    // The want-ALU bitmap holds exactly the valid, all-seen slots
    // that need a (re-)execution, so the scan touches only those.
    int best = -1;
    for (std::size_t w = 0; _wantAlu.count && w < _wantAlu.words.size();
         ++w) {
        std::uint64_t bits = _wantAlu.words[w];
        while (bits) {
            unsigned rs = static_cast<unsigned>(w * 64) +
                          static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            if (best < 0 || _seq[rs] < _seq[best] ||
                (_seq[rs] == _seq[best] && _slotId[rs] < _slotId[best]))
                best = static_cast<int>(rs);
        }
    }
    if (best >= 0) {
        unsigned rs = static_cast<unsigned>(best);
        bool is_reexec = _flags[rs] & kExecuted;
        if (_p.commitWaveUsesAlu && is_reexec &&
            !(_flags[rs] & kDirtyValue) && (_flags[rs] & kDirtyState)) {
            upgrade(now, rs);
        } else {
            execute(now, rs, is_reexec);
        }
        // Either way the slot is clean again and wants nothing.
        _wantAlu.clear(rs);
        did = true;
    }

    if (!_p.commitWaveUsesAlu) {
        unsigned budget = _p.commitPortsPerNode;
        for (std::size_t w = 0;
             _wantUpgrade.count && budget && w < _wantUpgrade.words.size();
             ++w) {
            std::uint64_t bits = _wantUpgrade.words[w];
            while (bits && budget) {
                unsigned rs =
                    static_cast<unsigned>(w * 64) +
                    static_cast<unsigned>(__builtin_ctzll(bits));
                bits &= bits - 1;
                upgrade(now, rs);
                _wantUpgrade.clear(rs);
                --budget;
                did = true;
            }
        }
    }
    return did;
}

unsigned
ExecNode::occupancy() const
{
    unsigned n = 0;
    for (unsigned rs = 0; rs < _numSlots; ++rs)
        n += (_flags[rs] & kValid) != 0;
    return n;
}

std::string
ExecNode::debugState() const
{
    std::string out;
    for (unsigned rs = 0; rs < _numSlots; ++rs) {
        if (!(_flags[rs] & kValid) || (_flags[rs] & kExecuted))
            continue;
        std::string missing;
        for (unsigned k = 0; k < _slots[rs].numOps; ++k)
            if (!(_seen[rs] & (1u << k)))
                missing += strfmt(" op%u", k);
        out += strfmt("  seq %llu slot %u %s waiting:%s\n",
                      static_cast<unsigned long long>(_seq[rs]),
                      _slotId[rs], isa::opName(_slots[rs].op),
                      missing.empty() ? " (ready)" : missing.c_str());
    }
    return out;
}

} // namespace edge::core
