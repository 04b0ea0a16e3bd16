#include "core/reg_unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edge::core {

RegUnit::RegUnit(const CoreParams &params,
                 const std::vector<Word> &init_regs, StatSet &stats)
    : _p(params),
      _regs(init_regs),
      _window(params.numFrames),
      _bankFree(params.cols, 0),
      _archReads(stats.counter("regs.arch_reads",
                               "reads satisfied from the committed RF")),
      _forwardReads(stats.counter(
          "regs.forward_reads",
          "reads satisfied by in-flight block forwarding")),
      _rewrites(stats.counter(
          "regs.rewrites",
          "write values that changed after first arrival (waves)"))
{
    _regs.resize(isa::kNumArchRegs, 0);
}

Cycle
RegUnit::bankPort(Cycle now, unsigned reg)
{
    unsigned bank = reg % _p.cols;
    Cycle start = std::max(now, _bankFree[bank]);
    _bankFree[bank] = start + 1;
    return start;
}

void
RegUnit::forwardTo(Cycle now, Subscription &sub, Word value,
                   ValState state, std::uint16_t depth,
                   bool status_only)
{
    RegForward &f = _forwards.emplace_back();
    // Status-only forwards ride the status network and do not
    // occupy a register-file data port; either way a later forward
    // (commit wave) may not overtake an earlier one on this link.
    f.when = status_only ? now + _p.regReadLatency
                         : bankPort(now, sub.reg) + _p.regReadLatency;
    f.when = std::max(f.when, sub.lastWhen);
    sub.lastWhen = f.when;
    f.statusOnly = status_only;
    f.readerSeq = sub.readerSeq;
    f.reg = sub.reg;
    f.value = value;
    f.state = state;
    f.wave = ++sub.wave;
    f.depth = depth;
    f.readIdx = sub.readIdx;
}

void
RegUnit::mapBlock(Cycle now, DynBlockSeq seq, const isa::Block &block)
{
    panic_if(_window.full(), "register window full at seq %llu",
             static_cast<unsigned long long>(seq));
    panic_if(!_window.empty() && _window.youngest().seq >= seq,
             "register map of seq %llu twice or out of order",
             static_cast<unsigned long long>(seq));

    // Resolve the reads *before* claiming our own frame so a block
    // never forwards from itself.
    for (std::size_t r = 0; r < block.reads().size(); ++r) {
        const isa::RegRead &rd = block.reads()[r];
        // Youngest older in-flight writer of this register.
        Frame *writer = nullptr;
        for (unsigned a = _window.size(); a-- > 0;) {
            Frame &f = _window.at(a);
            if ((f.writesReg >> rd.reg) & 1) {
                writer = &f;
                break;
            }
        }
        Subscription sub;
        sub.readerSeq = seq;
        sub.reg = rd.reg;
        sub.readIdx = static_cast<std::uint8_t>(r);
        if (!writer) {
            // Architectural value: Final by definition.
            ++_archReads;
            forwardTo(now, sub, _regs[rd.reg], ValState::Final, 0,
                      false);
            // No subscription: the committed value cannot change.
            continue;
        }
        ++_forwardReads;
        WriteSlot &ws = writer->writes[writer->writeOf[rd.reg]];
        ws.subscribers.push_back(sub);
        if (ws.seen) {
            forwardTo(now, ws.subscribers.back(), ws.value, ws.state,
                      ws.depth, false);
        }
    }

    Frame &f = _window.pushYoung();
    f.seq = seq;
    f.writesReg = 0;
    f.numWrites = f.unseen = f.nonFinal =
        static_cast<std::uint8_t>(block.writes().size());
    for (unsigned w = 0; w < f.numWrites; ++w) {
        WriteSlot &ws = f.writes[w];
        ws.reg = block.writes()[w].reg;
        ws.seen = false;
        ws.value = 0;
        ws.state = ValState::Spec;
        ws.wave = 0;
        ws.depth = 0;
        ws.subscribers.clear();
        // A reader takes the first write of its register.
        if (!((f.writesReg >> ws.reg) & 1)) {
            f.writesReg |= std::uint64_t{1} << ws.reg;
            f.writeOf[ws.reg] = static_cast<std::uint8_t>(w);
        }
    }
}

void
RegUnit::writeArrived(Cycle now, DynBlockSeq seq, unsigned write_idx,
                      Word value, ValState state, std::uint32_t wave,
                      std::uint16_t depth)
{
    Frame *f = _window.find(seq);
    if (!f)
        return; // flushed block: stale message
    panic_if(write_idx >= f->numWrites, "write index out of range");
    WriteSlot &ws = f->writes[write_idx];

    // The data and status networks can reorder messages from the
    // same producer; waves are per-producer monotonic, so anything
    // at or below the last accepted wave is stale.
    if (ws.seen && wave <= ws.wave)
        return;
    ws.wave = wave;

    bool value_changed = !ws.seen || ws.value != value;
    panic_if(ws.seen && ws.state == ValState::Final && value_changed,
             "protocol violation: Final register write changed");
    bool state_up = ws.seen && ws.state != ValState::Final &&
                    state == ValState::Final;
    if (ws.seen && !value_changed && !state_up)
        return; // duplicate
    if (ws.seen && value_changed)
        ++_rewrites;

    // Past the checks above the write is not Final yet: a Final
    // write either panics on a change or is a duplicate.
    bool first = !ws.seen;
    ws.seen = true;
    ws.value = value;
    if (state == ValState::Final)
        ws.state = ValState::Final;
    else if (first || value_changed)
        ws.state = state;
    ws.depth = depth;
    f->unseen -= first;
    f->nonFinal -= ws.state == ValState::Final;

    bool status_only = !first && !value_changed && state_up;
    for (Subscription &sub : ws.subscribers)
        forwardTo(now, sub, ws.value, ws.state, ws.depth, status_only);
}

bool
RegUnit::blockWritesFinal(DynBlockSeq seq, bool need_final) const
{
    const Frame *f = _window.find(seq);
    panic_if(!f, "blockWritesFinal on unknown seq");
    return f->unseen == 0 && (!need_final || f->nonFinal == 0);
}

void
RegUnit::commitBlock(DynBlockSeq seq)
{
    const Frame *f = _window.find(seq);
    panic_if(!f, "commit of unknown seq");
    panic_if(f != &_window.oldest(), "register commit out of order");
    for (unsigned w = 0; w < f->numWrites; ++w) {
        const WriteSlot &ws = f->writes[w];
        panic_if(!ws.seen, "commit with a missing write value");
        _regs[ws.reg] = ws.value;
    }
    _window.popOldest();
}

void
RegUnit::flushFrom(DynBlockSeq from_seq)
{
    while (!_window.empty() && _window.youngest().seq >= from_seq)
        _window.popYoung();
    // Remove subscriptions from squashed readers.
    for (unsigned a = 0; a < _window.size(); ++a) {
        Frame &f = _window.at(a);
        for (unsigned w = 0; w < f.numWrites; ++w) {
            std::erase_if(f.writes[w].subscribers,
                          [&](const Subscription &s) {
                              return s.readerSeq >= from_seq;
                          });
        }
    }
}

} // namespace edge::core
