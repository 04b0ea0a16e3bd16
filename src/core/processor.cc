#include "core/processor.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "core/scheduler.hh"

namespace edge::core {

Processor::Processor(const MachineConfig &config,
                     const isa::Program &program,
                     const pred::OracleDb *oracle, StatSet &stats,
                     const ProgramImage *image)
    : _cfg(config),
      _prog(program),
      _oracle(oracle),
      _stats(stats),
      _trace(config.traceDepth),
      _livelock(config.core.livelockInterval,
                config.core.livelockRepeats),
      _statCommittedBlocks(stats.counter("core.committed_blocks",
                                         "blocks committed")),
      _statCommittedInsts(stats.counter("core.committed_insts",
                                        "instructions committed")),
      _statCtrlFlushes(stats.counter("core.ctrl_flushes",
                                     "flushes from exit mispredicts")),
      _statViolFlushes(stats.counter(
          "core.viol_flushes", "flushes from dependence violations")),
      _statFetchedBlocks(stats.counter("core.fetched_blocks",
                                       "blocks fetched and mapped"))
{
    fatal_if(_cfg.core.numNodes() * _cfg.core.slotsPerNode <
                 isa::kMaxBlockInsts,
             "grid capacity below the maximum block size");
    fatal_if(_cfg.core.numNodes() > 64,
             "a %u-node grid exceeds the 64 nodes the ready mask holds",
             _cfg.core.numNodes());
    fatal_if(_cfg.policy == pred::DepPolicy::Oracle && !oracle,
             "the oracle policy needs an OracleDb");

    compiler::GridGeom geom{_cfg.core.rows, _cfg.core.cols,
                            _cfg.core.slotsPerNode};
    if (image) {
        // The shared image already validated the program and caches
        // placements per geometry; skip the per-Processor work.
        fatal_if(&image->program() != &program,
                 "program image does not wrap this program");
        _placements = &image->placements(geom);
    } else {
        std::string why;
        fatal_if(!program.validate(&why), "invalid program: %s",
                 why.c_str());
        _ownPlacements.reserve(program.numBlocks());
        for (std::size_t b = 0; b < program.numBlocks(); ++b) {
            _ownPlacements.push_back(
                compiler::placeBlock(program.block(
                                         static_cast<BlockId>(b)),
                                     geom));
        }
        _placements = &_ownPlacements;
    }

    _localIdxPool = _arena.allocArray<std::uint16_t>(
        static_cast<std::size_t>(_cfg.core.numFrames) *
        isa::kMaxBlockInsts);
    _nodeFill.resize(_cfg.core.numNodes(), 0);

    for (const auto &init : program.memImage())
        _dmem.writeBytes(init.base, init.bytes.data(), init.bytes.size());

    if (_cfg.chaos.enabled() ||
        _cfg.chaos.mutation != chaos::Mutation::None) {
        _chaos = std::make_unique<chaos::ChaosEngine>(_cfg.chaos);
    }
    if (_cfg.checkInvariants) {
        _check = std::make_unique<chaos::InvariantChecker>(
            _cfg.core.squashIdenticalValues,
            _cfg.lsq.recovery == lsq::Recovery::Dsre,
            [this](Addr a, unsigned bytes) {
                return _dmem.read(a, bytes);
            });
    }

    _hier =
        std::make_unique<mem::Hierarchy>(_cfg.mem, stats, _chaos.get());

    net::MeshParams mp;
    mp.geom = {_cfg.core.rows + 1, _cfg.core.cols + 1};
    mp.hopLatency = _cfg.core.hopLatency;
    mp.chaos = _chaos.get();
    _mesh = std::make_unique<net::Mesh<Msg>>(mp, stats);
    net::MeshParams gp = mp;
    gp.statPrefix = "gcn";
    _gcn = std::make_unique<net::Mesh<Msg>>(gp, stats);

    _policy = pred::makeDependencePredictor(_cfg.policy, oracle, stats);
    _nbp = std::make_unique<pred::NextBlockPredictor>(_cfg.nbp, stats);

    _regs = std::make_unique<RegUnit>(_cfg.core, program.initRegs(),
                                      stats);

    _lsq = std::make_unique<lsq::LoadStoreQueue>(
        _cfg.lsq, _hier.get(), &_dmem, _policy.get(), stats,
        _cfg.core.numFrames, _chaos.get(), _check.get());

    NodeStats ns{
        stats.counter("core.alu_issues", "ALU issues (all executions)"),
        stats.counter("core.alu_reexecs", "DSRE re-executions"),
        stats.counter("core.upgrades", "commit-wave upgrade sends"),
        stats.counter("core.squashes", "value-identity squashes"),
        stats.histogram("core.wave_depth",
                        "propagation depth of re-executions"),
    };
    for (unsigned n = 0; n < _cfg.core.numNodes(); ++n) {
        _nodes.push_back(
            std::make_unique<ExecNode>(_cfg.core, ns, _chaos.get(), n));
    }

    for (unsigned f = 0; f < _cfg.core.numFrames; ++f)
        _freeFrames.push_back(_cfg.core.numFrames - 1 - f);
    _nextFetch = program.entry();
}

const std::vector<Word> &
Processor::archRegs() const
{
    return _regs->archRegs();
}

net::Coord
Processor::gridCoord(unsigned node) const
{
    return {static_cast<std::uint16_t>(node / _cfg.core.cols + 1),
            static_cast<std::uint16_t>(node % _cfg.core.cols + 1)};
}

net::Coord
Processor::rfCoord(unsigned reg) const
{
    return {0, static_cast<std::uint16_t>(reg % _cfg.core.cols + 1)};
}

net::Coord
Processor::lsqCoord(Addr addr) const
{
    unsigned bank = _hier->bankOf(addr);
    return {static_cast<std::uint16_t>(bank % _cfg.core.rows + 1), 0};
}

Addr
Processor::codeAddr(BlockId block) const
{
    // Code lives in its own region; a block occupies 512 bytes of
    // instruction storage (128 x 4 bytes) in the I-cache's eyes.
    return 0x40000000ull + static_cast<Addr>(block) * 512;
}

Processor::BlockCtx *
Processor::findCtx(DynBlockSeq seq)
{
    BlockCtx *hit = _ctxBySeq[seq % kCtxIndex];
    if (hit && hit->seq == seq)
        return hit;
    // Not indexed: flushed, or its index entry went to a younger
    // block with the same seq modulo kCtxIndex.
    for (BlockCtx &ctx : _inflight)
        if (ctx.seq == seq)
            return &ctx;
    return nullptr;
}

void
Processor::retireCtx(const BlockCtx &ctx)
{
    BlockCtx *&slot = _ctxBySeq[ctx.seq % kCtxIndex];
    if (slot == &ctx)
        slot = nullptr;
}

void
Processor::meshSend(Cycle when, net::Coord src, net::Coord dst,
                    const Msg &msg)
{
    if (msg.statusOnly)
        _gcn->send(when, src, dst, msg);
    else
        _mesh->send(when, src, dst, msg);
}

void
Processor::sendToTargets(
    Cycle when, net::Coord src, DynBlockSeq seq,
    const std::array<isa::Target, isa::kMaxTargets> &targets, Word value,
    ValState state, std::uint32_t wave, std::uint16_t depth,
    bool status_only, bool echo)
{
    BlockCtx *ctx = findCtx(seq);
    panic_if(!ctx, "sendToTargets for a flushed block");
    for (const isa::Target &t : targets) {
        if (!t.valid())
            continue;
        Msg m;
        m.seq = seq;
        m.value = value;
        m.state = state;
        m.wave = wave;
        m.depth = depth;
        m.statusOnly = status_only;
        m.echo = echo;
        if (t.kind == isa::TargetKind::Operand) {
            m.kind = Msg::Kind::Operand;
            m.slot = t.index;
            m.operand = t.operand;
            unsigned node = ctx->placement->nodeOf[t.index];
            meshSend(when, src, gridCoord(node), m);
        } else {
            m.kind = Msg::Kind::WriteVal;
            m.writeIdx = t.index;
            unsigned reg = ctx->block->writes()[t.index].reg;
            meshSend(when, src, rfCoord(reg), m);
        }
    }
}

void
Processor::routeNodeEvent(const NodeEvent &ev, unsigned node)
{
    net::Coord src = gridCoord(node);
    switch (ev.kind) {
      case NodeEvent::Kind::Result:
        sendToTargets(ev.when, src, ev.seq, ev.targets, ev.value,
                      ev.state, ev.wave, ev.depth, ev.statusOnly,
                      false);
        return;
      case NodeEvent::Kind::LoadRequest: {
        Msg m;
        m.kind = Msg::Kind::LoadReq;
        m.seq = ev.seq;
        m.slot = ev.slot;
        m.lsid = ev.lsid;
        m.addr = ev.addr;
        m.state = ev.state;
        m.wave = ev.wave;
        m.depth = ev.depth;
        m.statusOnly = ev.statusOnly;
        m.targets = ev.targets;
        meshSend(ev.when, src, lsqCoord(ev.addr), m);
        return;
      }
      case NodeEvent::Kind::StoreResolve: {
        Msg m;
        m.kind = Msg::Kind::StoreResolve;
        m.seq = ev.seq;
        m.slot = ev.slot;
        m.lsid = ev.lsid;
        m.addr = ev.addr;
        m.value = ev.value;
        m.state = ev.state;
        m.addrState = ev.addrState;
        m.wave = ev.wave;
        m.depth = ev.depth;
        m.statusOnly = ev.statusOnly;
        meshSend(ev.when, src, lsqCoord(ev.addr), m);
        return;
      }
      case NodeEvent::Kind::Exit: {
        Msg m;
        m.kind = Msg::Kind::ExitVal;
        m.seq = ev.seq;
        m.value = ev.value;
        m.state = ev.state;
        m.wave = ev.wave;
        m.depth = ev.depth;
        m.statusOnly = ev.statusOnly;
        meshSend(ev.when, src, ctrlCoord(), m);
        return;
      }
    }
}

bool
Processor::tickNode(unsigned node)
{
    bool issued = _nodes[node]->tick(_cycle);
    std::vector<NodeEvent> &events = _nodes[node]->events();
    for (const NodeEvent &ev : events)
        routeNodeEvent(ev, node);
    events.clear();
    return issued;
}

void
Processor::drainLsq()
{
    for (const lsq::LoadReply &r : _lsq->replies()) {
        sendToTargets(r.when, lsqCoord(r.addr), r.seq, r.targets,
                      r.value, r.state, r.wave, r.depth, r.statusOnly,
                      r.echo);
    }
    _lsq->replies().clear();
    for (const lsq::Violation &v : _lsq->flushRequests())
        onViolation(v);
    _lsq->flushRequests().clear();
}

void
Processor::drainRegs()
{
    for (const RegForward &f : _regs->forwards()) {
        sendToTargets(f.when, rfCoord(f.reg), f.readerSeq, f.targets,
                      f.value, f.state, f.wave, f.depth, f.statusOnly,
                      false);
    }
    _regs->forwards().clear();
}

void
Processor::deliverMsg(Cycle now, const Msg &msg)
{
    _trace.push({now, chaos::TraceEvent::Kind::Deliver, msg.seq,
                 msg.slot, msg.wave, msg.value,
                 msg.state == ValState::Final});
    if (_check && findCtx(msg.seq)) {
        using Site = chaos::InvariantChecker::Delivery::Site;
        chaos::InvariantChecker::Delivery d;
        d.seq = msg.seq;
        d.value = msg.value;
        d.addr = msg.addr;
        d.state = msg.state;
        d.addrState = msg.addrState;
        d.wave = msg.wave;
        d.statusOnly = msg.statusOnly;
        d.echo = msg.echo;
        d.cycle = now;
        switch (msg.kind) {
          case Msg::Kind::Operand:
            d.site = Site::NodeOperand;
            d.a = msg.slot;
            d.b = msg.operand;
            break;
          case Msg::Kind::WriteVal:
            d.site = Site::RegWrite;
            d.a = msg.writeIdx;
            break;
          case Msg::Kind::LoadReq:
            d.site = Site::LsqLoad;
            d.a = msg.lsid;
            break;
          case Msg::Kind::StoreResolve:
            d.site = Site::LsqStore;
            d.a = msg.lsid;
            break;
          case Msg::Kind::ExitVal:
            d.site = Site::Exit;
            break;
        }
        _check->onDelivery(d);
    }
    switch (msg.kind) {
      case Msg::Kind::Operand: {
        BlockCtx *ctx = findCtx(msg.seq);
        if (!ctx)
            return; // flushed
        unsigned node = ctx->placement->nodeOf[msg.slot];
        _nodes[node]->deliver(ctx->frame, ctx->localIdx[msg.slot],
                              msg.operand, msg.value, msg.state,
                              msg.wave, msg.depth);
        _readyNodes |= std::uint64_t{1} << node;
        return;
      }
      case Msg::Kind::WriteVal:
        _regs->writeArrived(now, msg.seq, msg.writeIdx, msg.value,
                            msg.state, msg.wave, msg.depth);
        drainRegs();
        return;
      case Msg::Kind::LoadReq:
        _lsq->loadRequest(now, msg.seq, msg.lsid, msg.addr, msg.state,
                          msg.wave, msg.depth, msg.targets, msg.slot);
        drainLsq();
        return;
      case Msg::Kind::StoreResolve:
        _lsq->storeResolve(now, msg.seq, msg.lsid, msg.addr, msg.value,
                           msg.addrState, msg.state, msg.wave,
                           msg.depth);
        drainLsq();
        return;
      case Msg::Kind::ExitVal:
        handleExit(now, msg);
        return;
    }
}

void
Processor::handleExit(Cycle now, const Msg &msg)
{
    BlockCtx *ctx = findCtx(msg.seq);
    if (!ctx)
        return; // flushed
    if (msg.wave <= ctx->exitWave)
        return; // stale wave
    ctx->exitWave = msg.wave;

    bool value_changed = !ctx->exitSeen || ctx->exitValue != msg.value;
    panic_if(ctx->exitSeen && ctx->exitState == ValState::Final &&
                 value_changed,
             "protocol violation: Final exit changed value");
    ctx->exitSeen = true;
    ctx->exitValue = msg.value;
    if (msg.state == ValState::Final)
        ctx->exitState = ValState::Final;

    unsigned actual = static_cast<unsigned>(
        ctx->exitValue % ctx->block->exits().size());
    if (actual == ctx->fetchedExit)
        return; // the fetch chain already follows this exit

    // Control misspeculation: the DSRE protocol cannot selectively
    // re-execute across a wrong control edge, so flush younger.
    ++_statCtrlFlushes;
    DynBlockSeq seq = ctx->seq;
    std::uint64_t arch_idx = ctx->archIdx;
    std::uint64_t snapshot = ctx->historySnapshot;
    BlockId succ = ctx->block->exits()[actual];

    flushFrom(seq + 1);
    // flushFrom may invalidate ctx? It flushes strictly younger
    // blocks, so ctx survives; refresh anyway for clarity.
    ctx = findCtx(seq);
    panic_if(!ctx, "exit owner vanished during flush");
    ctx->fetchedExit = actual;

    _nbp->restoreHistory(snapshot);
    _nbp->pushSpeculativeHistory(actual);
    redirectFetch(succ, arch_idx + 1);
}

void
Processor::onViolation(const lsq::Violation &violation)
{
    // Only flush recovery routes violations here (DSRE re-sends).
    // The LSQ already squashed its own part of the window.
    BlockCtx *ctx = findCtx(violation.loadSeq);
    if (!ctx)
        return; // already squashed by an earlier violation
    _trace.push({_cycle, chaos::TraceEvent::Kind::Violation,
                 violation.loadSeq, violation.loadLsid});
    ++_statViolFlushes;
    BlockId blk = ctx->blockId;
    std::uint64_t arch_idx = ctx->archIdx;
    _nbp->restoreHistory(ctx->historySnapshot);
    flushFrom(violation.loadSeq, true);
    redirectFetch(blk, arch_idx);
}

void
Processor::flushFrom(DynBlockSeq from_seq, bool lsq_flushed)
{
    _trace.push({_cycle, chaos::TraceEvent::Kind::Flush, from_seq});
    while (!_inflight.empty() && _inflight.back().seq >= from_seq) {
        BlockCtx &ctx = _inflight.back();
        clearFrame(ctx);
        _freeFrames.push_back(ctx.frame);
        retireCtx(ctx);
        _inflight.pop_back();
    }
    if (!lsq_flushed)
        _lsq->flushFrom(from_seq);
    _regs->flushFrom(from_seq);
    _fetchBusy = false; // cancel any in-progress fetch
    _fetchHalted = false;
}

void
Processor::clearFrame(const BlockCtx &ctx)
{
    for (std::uint64_t m = ctx.nodes; m; m &= m - 1)
        _nodes[std::countr_zero(m)]->clearFrame(ctx.frame);
}

void
Processor::redirectFetch(BlockId next, std::uint64_t arch_idx)
{
    if (next == isa::kHaltBlock) {
        _fetchHalted = true;
        return;
    }
    _nextFetch = next;
    _nextArchIdx = arch_idx;
    _fetchHalted = false;
}

bool
Processor::fetchTick(Cycle now)
{
    if (_halted)
        return false;
    if (_fetchBusy) {
        if (now >= _fetchReady && !_freeFrames.empty()) {
            mapFetchedBlock(now);
            return true;
        }
        return false;
    }
    if (_fetchHalted || _freeFrames.empty())
        return false;
    _fetchBlock = _nextFetch;
    _fetchBusy = true;
    Cycle ic = _hier->instFetch(now, codeAddr(_fetchBlock));
    auto n = static_cast<unsigned>(
        _prog.block(_fetchBlock).insts().size());
    _fetchReady =
        ic + (n + _cfg.core.fetchWidth - 1) / _cfg.core.fetchWidth;
    return true;
}

void
Processor::mapFetchedBlock(Cycle now)
{
    unsigned frame = _freeFrames.back();
    _freeFrames.pop_back();

    BlockId bid = _fetchBlock;
    const isa::Block &b = _prog.block(bid);

    BlockCtx ctx;
    ctx.seq = _nextSeq++;
    ctx.blockId = bid;
    ctx.archIdx = _nextArchIdx++;
    ctx.frame = frame;
    ctx.block = &b;
    ctx.placement = &(*_placements)[bid];
    // The frame's fixed region of the arena pool: frames recycle out
    // of order (flush vs. commit), so the pool is keyed by frame, not
    // carved per block.
    ctx.localIdx =
        _localIdxPool +
        static_cast<std::size_t>(frame) * isa::kMaxBlockInsts;

    std::fill(_nodeFill.begin(), _nodeFill.end(), 0);
    for (std::size_t s = 0; s < b.insts().size(); ++s) {
        unsigned node = ctx.placement->nodeOf[s];
        std::uint16_t local = _nodeFill[node]++;
        panic_if(local >= _cfg.core.slotsPerNode,
                 "placement overflows node %u", node);
        ctx.localIdx[s] = local;
        ctx.nodes |= std::uint64_t{1} << node;
        _nodes[node]->mapInst(frame, local, ctx.seq,
                              static_cast<SlotId>(s), b.insts()[s]);
    }
    // Conservative: a mapped node may have a zero-operand slot ready
    // now; runEvent clears the bit again once it finds no work.
    _readyNodes |= ctx.nodes;

    unsigned e = std::min<unsigned>(
        _nbp->predict(bid),
        static_cast<unsigned>(b.exits().size()) - 1);
    ctx.predictedExit = ctx.fetchedExit = e;
    ctx.historySnapshot = _nbp->pushSpeculativeHistory(e);

    BlockId succ = b.exits()[e];
    DynBlockSeq seq = ctx.seq;
    // The context must be visible before the LSQ / register unit
    // map the block: register reads can forward immediately.
    _inflight.push_back(std::move(ctx));
    _ctxBySeq[seq % kCtxIndex] = &_inflight.back();
    ++_statFetchedBlocks;
    _lsq->mapBlock(seq, _inflight.back().archIdx, bid, b);
    _regs->mapBlock(now, seq, b);
    drainRegs();

    if (succ == isa::kHaltBlock)
        _fetchHalted = true;
    else
        _nextFetch = succ;
    _fetchBusy = false;
}

bool
Processor::commitTick(Cycle now)
{
    if (_inflight.empty())
        return false;
    BlockCtx &ctx = _inflight.front();
    bool need_final = _cfg.lsq.recovery == lsq::Recovery::Dsre;

    bool exit_ok = ctx.exitSeen &&
                   (!need_final || ctx.exitState == ValState::Final);
    bool writes_ok = _regs->blockWritesFinal(ctx.seq, need_final);
    bool mem_ok = _lsq->blockMemFinal(ctx.seq);
    if (!exit_ok || !writes_ok || !mem_ok)
        return false;

    auto actual = static_cast<unsigned>(
        ctx.exitValue % ctx.block->exits().size());
    panic_if(actual != ctx.fetchedExit,
             "committing block whose exit disagrees with the fetch "
             "chain (exit %u vs %u)", actual, ctx.fetchedExit);

    if (_cfg.checkCommittedPath && _oracle &&
        ctx.archIdx < _oracle->numBlocks()) {
        panic_if(_oracle->blockAt(ctx.archIdx) != ctx.blockId,
                 "committed path diverges from the reference at "
                 "architectural block %llu",
                 static_cast<unsigned long long>(ctx.archIdx));
        panic_if(_oracle->exitAt(ctx.archIdx) != actual,
                 "committed exit diverges from the reference at "
                 "architectural block %llu",
                 static_cast<unsigned long long>(ctx.archIdx));
    }

    _nbp->update(ctx.blockId, actual, ctx.historySnapshot);
    _nbp->recordOutcome(actual == ctx.predictedExit);

    _regs->commitBlock(ctx.seq);
    _lsq->commitBlock(now, ctx.seq);
    clearFrame(ctx);
    _freeFrames.push_back(ctx.frame);

    _trace.push({now, chaos::TraceEvent::Kind::Commit, ctx.seq, 0, 0,
                 ctx.exitValue, true});
    ++_statCommittedBlocks;
    _statCommittedInsts += ctx.block->insts().size();
    ++_committedBlocks;
    _committedInsts += ctx.block->insts().size();
    _lastCommit = now;

    BlockId succ = ctx.block->exits()[actual];
    retireCtx(ctx);
    _inflight.pop_front();

    if (succ == isa::kHaltBlock)
        _halted = true;
    return true;
}

std::string
Processor::machineDump(Cycle now)
{
    std::string dump = strfmt(
        "no commit for %llu cycles (cycle %llu); committed %llu; "
        "fetchBusy=%d fetchHalted=%d halted=%d freeFrames=%zu "
        "nextFetch=%u mesh=%zu; in flight:\n",
        static_cast<unsigned long long>(now - _lastCommit),
        static_cast<unsigned long long>(now),
        static_cast<unsigned long long>(_committedBlocks), _fetchBusy,
        _fetchHalted, _halted, _freeFrames.size(), _nextFetch,
        _mesh->inFlight());
    dump += strfmt("  fetchBlock=%u fetchReady=%llu\n", _fetchBlock,
                   static_cast<unsigned long long>(_fetchReady));
    for (const BlockCtx &ctx : _inflight) {
        dump += strfmt(
            "  seq %llu block %u (%s) frame %u exitSeen=%d\n",
            static_cast<unsigned long long>(ctx.seq), ctx.blockId,
            ctx.block->name().c_str(), ctx.frame, ctx.exitSeen);
    }
    if (!_inflight.empty()) {
        const BlockCtx &o = _inflight.front();
        bool nf = _cfg.lsq.recovery == lsq::Recovery::Dsre;
        dump += strfmt(
            "oldest: exitSeen=%d exitFinal=%d writesOk=%d memOk=%d\n",
            o.exitSeen, o.exitState == ValState::Final,
            _regs->blockWritesFinal(o.seq, nf),
            _lsq->blockMemFinal(o.seq));
    }
    dump += strfmt("lsq non-final entries:\n%s",
                   _lsq->debugState().c_str());
    for (unsigned n = 0; n < _nodes.size(); ++n) {
        std::string s = _nodes[n]->debugState();
        if (!s.empty())
            dump += strfmt("node %u:\n%s", n, s.c_str());
    }
    return dump;
}

chaos::SimError
Processor::watchdogDump(Cycle now)
{
    chaos::SimError err;
    err.reason = chaos::SimError::Reason::Watchdog;
    err.invariant = "commit-progress";
    err.message = "deadlock watchdog fired:\n" + machineDump(now);
    err.cycle = now;
    if (!_inflight.empty())
        err.seq = _inflight.front().seq;
    err.trace = _trace.snapshot();
    return err;
}

chaos::SimError
Processor::livelockDump(Cycle now)
{
    chaos::SimError err;
    err.reason = chaos::SimError::Reason::Livelock;
    err.invariant = "forward-progress";
    err.message = strfmt(
        "livelock detected: the per-interval activity digest repeated "
        "%u times (sample interval %llu cycles) without a commit — "
        "the machine is exchanging waves but making no architectural "
        "progress:\n",
        _livelock.streak() + 1,
        static_cast<unsigned long long>(_livelock.interval()));
    err.message += machineDump(now);
    err.cycle = now;
    if (!_inflight.empty())
        err.seq = _inflight.front().seq;
    err.trace = _trace.snapshot();
    return err;
}

std::uint64_t
Processor::activityDigest(bool *active)
{
    const std::uint64_t cur[4] = {
        _stats.counterValue("net.delivered"),
        _stats.counterValue("gcn.delivered"),
        _stats.counterValue("core.alu_issues"),
        _stats.counterValue("lsq.resends"),
    };
    std::uint64_t digest = 0;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < 4; ++i) {
        std::uint64_t delta = cur[i] - _llPrev[i];
        _llPrev[i] = cur[i];
        total += delta;
        digest = chaos::digestMix(digest, delta);
    }
    digest = chaos::digestMix(digest, _mesh->inFlight());
    digest = chaos::digestMix(digest, _gcn->inFlight());
    total += _mesh->inFlight() + _gcn->inFlight();
    *active = total != 0;
    return digest;
}

void
Processor::runTick(Cycle max_cycles, Result &res)
{
    while (!_halted && _cycle < max_cycles) {
        _mesh->deliver(_cycle, [this](net::Coord, Msg &&m) {
            deliverMsg(_cycle, m);
        });
        _gcn->deliver(_cycle, [this](net::Coord, Msg &&m) {
            deliverMsg(_cycle, m);
        });
        for (unsigned n = 0; n < _nodes.size(); ++n)
            tickNode(n);
        fetchTick(_cycle);
        commitTick(_cycle);
        if (_cycle - _lastCommit > _cfg.core.watchdogCycles) {
            res.error = watchdogDump(_cycle);
            break;
        }
        if (_livelock.due(_cycle)) {
            bool active = false;
            std::uint64_t digest = activityDigest(&active);
            if (_livelock.sample(_committedBlocks, digest, active)) {
                res.error = livelockDump(_cycle);
                break;
            }
        }
        ++_cycle;
    }
}

void
Processor::runEvent(Cycle max_cycles, Result &res)
{
    // Wake-list engine. Every cycle that the ticking loop would have
    // processed *non-inertly* is either (a) a mesh/GCN arrival cycle,
    // (b) the cycle after an active one (local state changed, so
    // fetch/commit/nodes may act), or (c) a registered wake (fetch
    // completion, watchdog fire, livelock sample). Everything else is
    // provably inert — node ticks with no want-bits, fetch with no
    // state change, commit with unchanged finality have zero side
    // effects — so skipping those cycles is observably identical to
    // ticking through them (see DESIGN.md "Event-driven cycle
    // engine"). Stale wakes merely cause one inert processed cycle.
    Scheduler sched;
    sched.wakeAt(_lastCommit + _cfg.core.watchdogCycles + 1);
    if (_livelock.enabled())
        sched.wakeAt(_livelock.interval());
    if (_fetchBusy)
        sched.wakeAt(_fetchReady);

    while (!_halted && _cycle < max_cycles) {
        bool active = false;
        _mesh->deliver(_cycle, [this, &active](net::Coord, Msg &&m) {
            active = true;
            deliverMsg(_cycle, m);
        });
        _gcn->deliver(_cycle, [this, &active](net::Coord, Msg &&m) {
            active = true;
            deliverMsg(_cycle, m);
        });
        // Only nodes in the ready mask can have work; walking it low
        // bit first keeps the node order of a full scan. Ticking a
        // node only sends mesh messages, so it cannot give another
        // node work within this loop.
        for (std::uint64_t m = _readyNodes; m; m &= m - 1) {
            unsigned n = static_cast<unsigned>(std::countr_zero(m));
            if (_nodes[n]->hasWork())
                active |= tickNode(n);
            if (!_nodes[n]->hasWork())
                _readyNodes &= ~(std::uint64_t{1} << n);
        }
        if (fetchTick(_cycle))
            active = true;
        if (_fetchBusy)
            sched.wakeAt(_fetchReady);
        if (commitTick(_cycle)) {
            active = true;
            // The watchdog deadline moved: it fires the first cycle
            // where now - lastCommit exceeds the budget.
            sched.wakeAt(_lastCommit + _cfg.core.watchdogCycles + 1);
        }
        if (_cycle - _lastCommit > _cfg.core.watchdogCycles) {
            res.error = watchdogDump(_cycle);
            break;
        }
        if (_livelock.due(_cycle)) {
            bool ll_active = false;
            std::uint64_t digest = activityDigest(&ll_active);
            if (_livelock.sample(_committedBlocks, digest, ll_active)) {
                res.error = livelockDump(_cycle);
                break;
            }
            // Keep the sample chain alive: every multiple of the
            // interval must be processed, exactly as the tick loop
            // visits them.
            sched.wakeAt(_cycle + _livelock.interval());
        }

        Cycle next = _cycle + 1;
        if (!active) {
            Cycle wake = std::min(
                sched.nextAtOrAfter(next),
                std::min(_mesh->nextArrival(), _gcn->nextArrival()));
            next = std::max(next, std::min(wake, max_cycles));
        }
        _cycle = next;
    }
}

Processor::Result
Processor::run(Cycle max_cycles)
{
    Result res;
    // Graceful degradation: a watchdog timeout, a livelock, a protocol
    // panic or an invariant-checker failure stops the run and surfaces
    // as a structured report instead of aborting the process.
    try {
        if (_cfg.engine == EngineKind::Tick)
            runTick(max_cycles, res);
        else
            runEvent(max_cycles, res);
    } catch (const chaos::InvariantFailure &f) {
        res.error.reason = chaos::SimError::Reason::InvariantViolation;
        res.error.invariant = f.invariant();
        res.error.message = f.what();
        res.error.cycle = f.cycle();
        res.error.seq = f.seq();
        res.error.trace = _trace.snapshot();
    } catch (const SimFailure &f) {
        res.error.reason = chaos::SimError::Reason::ProtocolPanic;
        res.error.message = f.what();
        res.error.cycle = _cycle;
        res.error.trace = _trace.snapshot();
    }
    res.cycles = _cycle;
    res.committedBlocks = _committedBlocks;
    res.committedInsts = _committedInsts;
    res.halted = _halted && res.error.ok();
    return res;
}

} // namespace edge::core
