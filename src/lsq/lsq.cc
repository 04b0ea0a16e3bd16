#include "lsq/lsq.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "predictor/oracle.hh" // rangesOverlap

namespace edge::lsq {

using pred::rangesOverlap;

const char *
recoveryName(Recovery recovery)
{
    switch (recovery) {
      case Recovery::Flush: return "flush";
      case Recovery::Dsre:  return "dsre";
    }
    return "?";
}

LoadStoreQueue::LoadStoreQueue(const LsqParams &params,
                               mem::Hierarchy *hierarchy,
                               mem::SparseMemory *memory,
                               pred::DependencePredictor *policy,
                               StatSet &stats, unsigned num_frames,
                               chaos::ChaosEngine *chaos,
                               chaos::InvariantChecker *check)
    : _p(params),
      _spec(params.recovery == Recovery::Dsre),
      _hier(hierarchy),
      _mem(memory),
      _policy(policy),
      _chaos(chaos),
      _check(check),
      _ring(num_frames),
      _bankFree(hierarchy->params().numDBanks, 0),
      _loads(stats.counter("lsq.loads", "loads performed")),
      _stores(stats.counter("lsq.stores", "stores resolved")),
      _forwards(stats.counter("lsq.forwards",
                              "loads fully forwarded from stores")),
      _violations(stats.counter("lsq.violations",
                                "dependence violations detected")),
      _resends(stats.counter("lsq.resends",
                             "DSRE corrective load resends")),
      _upgrades(stats.counter("lsq.upgrades",
                              "commit-wave load state upgrades")),
      _policyHolds(stats.counter("lsq.policy_holds",
                                 "loads initially held by the policy")),
      _replayWaits(stats.counter(
          "lsq.replay_waits",
          "violating loads replayed conservatively after a flush")),
      _deferrals(stats.counter(
          "lsq.deferrals",
          "corrective resends deferred to the commit wave")),
      _vpPredictions(stats.counter(
          "lsq.vp_predictions",
          "miss value predictions issued (vp extension)")),
      _vpCorrect(stats.counter(
          "lsq.vp_correct",
          "miss value predictions that were right (vp extension)")),
      _violationDistance(stats.histogram(
          "lsq.violation_distance",
          "blocks between conflicting store and load"))
{
    fatal_if(num_frames > 2048, "LSQ window of %u frames exceeds 2048",
             num_frames);
    fatal_if(_p.valuePredictMisses && !_spec,
             "miss value prediction needs DSRE recovery to correct "
             "wrong predictions");
    if (_p.valuePredictMisses)
        _vpTable.assign(_p.vpTableSize, VpEntry{});
    // About four buckets per op the window can hold.
    _bucketHead.assign(
        std::bit_ceil(num_frames * isa::kMaxBlockMemOps * 4), kNil);
    _indexMask = _bucketHead.size() - 1;
    _links.resize(num_frames * isa::kMaxBlockMemOps * 2);
}

void
LoadStoreQueue::index(const Block &b, Lsid lsid, bool add)
{
    const MemEntry &e = b.entries[lsid];
    std::uint32_t id = _ring.slotOf(b) << 5 | lsid;
    Addr word = e.addr >> 3;
    for (unsigned k = 0; k <= straddles(e.addr, e.bytes); ++k) {
        std::uint32_t node = id << 1 | k;
        std::uint32_t &head = _bucketHead[bucketOf(word + k)];
        Link &l = _links[node];
        if (add) {
            l.prev = kNil;
            l.next = head;
            if (head != kNil)
                _links[head].prev = node;
            head = node;
            continue;
        }
        panic_if(l.prev == kUnlinked, "LSQ address index lost an op");
        (l.prev != kNil ? _links[l.prev].next : head) = l.next;
        if (l.next != kNil)
            _links[l.next].prev = l.prev;
        l.prev = l.next = kUnlinked;
    }
}

void
LoadStoreQueue::unindexBlock(const Block &b)
{
    for (Mask m = (b.stores & ~b.unresolved) | b.performed; m; m &= m - 1)
        index(b, low(m), false);
}

void
LoadStoreQueue::gather(Addr addr, unsigned bytes,
                       std::vector<std::uint32_t> &out) const
{
    forIds(addr, bytes, [&](std::uint16_t id) { out.push_back(idKey(id)); });
    // An op on both words, or two words sharing a bucket, repeats.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

LoadReply &
LoadStoreQueue::emitReply(Block &b, Lsid lsid, Cycle when, Word value,
                          ValState state, std::uint16_t depth)
{
    MemEntry &e = b.entries[lsid];
    LoadReply &r = _replies.emplace_back();
    r.when = when;
    r.addr = e.addr;
    r.seq = b.seq;
    r.value = value;
    r.wave = ++e.replyWave;
    r.slot = e.slot;
    r.lsid = lsid;
    r.depth = depth;
    r.state = state;
    return r;
}

Cycle
LoadStoreQueue::bankPort(Cycle now, Addr addr)
{
    unsigned bank = _hier->bankOf(addr);
    Cycle start = std::max(now, _bankFree[bank]);
    _bankFree[bank] = start + 1;
    return start;
}

void
LoadStoreQueue::mapBlock(DynBlockSeq seq, std::uint64_t arch_idx,
                         BlockId block_id, const isa::Block &block)
{
    panic_if(_ring.full(), "LSQ window full at seq %llu",
             static_cast<unsigned long long>(seq));
    panic_if(!_ring.empty() && _ring.youngest().seq >= seq,
             "block seq %llu mapped twice or out of order",
             static_cast<unsigned long long>(seq));
    Block &b = _ring.pushYoung();
    b.seq = seq;
    b.archIdx = arch_idx;
    b.blockId = block_id;
    b.ops = b.stores = b.performed = b.spec = b.recheck = b.waiting = 0;
    // One walk: only the entries of the block's own LSIDs are reset.
    for (std::size_t s = 0; s < block.insts().size(); ++s) {
        const auto &in = block.insts()[s];
        const isa::OpInfo &info = isa::opInfo(in.op);
        if (!info.isLoad && !info.isStore)
            continue;
        MemEntry &e = b.entries[in.lsid];
        e = MemEntry{};
        bool is_store = info.isStore;
        e.bytes = info.accessBytes;
        e.slot = static_cast<SlotId>(s);
        b.ops |= bit(in.lsid);
        if (is_store) {
            b.stores |= bit(in.lsid);
            _policy->onStoreMapped(seq, block_id, in.lsid);
        } else {
            e.dep = _policy->onLoadMapped(seq, block_id, in.lsid);
        }
        if (_check)
            _check->onMemOpMapped(seq, in.lsid, is_store, e.bytes);
    }
    b.unresolved = b.stores;
    b.specAddr = b.specData = _spec ? b.stores : 0;
}

pred::OlderStores
LoadStoreQueue::olderStores(const Block &b, Lsid lsid) const
{
    return {_ring.data(), sizeof(Block), _ring.capacity(), _ring.head(),
            _ring.ageOf(b) + 1, below(lsid)};
}

Word
LoadStoreQueue::computeLoadValue(const Block &b, Lsid lsid,
                                 bool *from_mem) const
{
    // Start from architectural memory, then overlay every resolved
    // older store on the load's words in ascending (seq, lsid) order
    // so the youngest writer of each byte wins.
    const MemEntry &e = b.entries[lsid];
    Word value = _mem->read(e.addr, e.bytes);
#ifdef EDGE_MUTATIONS
    // Deliberate protocol mutation: forward each byte from the
    // OLDEST older covering store instead of the youngest. The
    // invariant checker catches it as `lsq-age-ordered-forwarding`.
    bool oldest_wins =
        _chaos &&
        _chaos->mutation() == chaos::Mutation::MisorderForward;
    std::array<bool, kWordBytes> written{};
#endif
    unsigned covered = 0; // bytes some older store writes
    std::uint32_t self = ageKey(b, lsid);
    _valueKeys.clear();
    gather(e.addr, e.bytes, _valueKeys);
    for (std::uint32_t key : _valueKeys) {
        if (key >= self)
            break;
        const Block &sb = at(key >> 5);
        if (!(sb.stores & bit(key & 31)))
            continue;
        const MemEntry &st = sb.entries[key & 31];
        if (!rangesOverlap(st.addr, st.bytes, e.addr, e.bytes))
            continue;
        for (unsigned i = 0; i < e.bytes; ++i) {
            Addr a = e.addr + i;
            if (a < st.addr || a >= st.addr + st.bytes)
                continue;
            covered |= 1u << i;
#ifdef EDGE_MUTATIONS
            if (oldest_wins && written[i])
                continue;
            written[i] = true;
#endif
            unsigned si = static_cast<unsigned>(a - st.addr);
            Word byte = (st.data >> (8 * si)) & 0xff;
            value &= ~(Word{0xff} << (8 * i));
            value |= byte << (8 * i);
        }
    }
    if (from_mem)
        *from_mem = covered != (1u << e.bytes) - 1;
    return value;
}

bool
LoadStoreQueue::loadIsFinal(const Block &b, Lsid lsid) const
{
    if (!_spec)
        return true;
    if (b.entries[lsid].addrState != ValState::Final)
        return false;
    // A load is final when no older store can still change it:
    // every older store must be resolved with a Final address, and
    // the ones that actually overlap (all on the load's words) must
    // have Final data too.
    for (unsigned a = 0;; ++a) {
        const Block &o = at(a);
        if (o.specAddr & (&o == &b ? below(lsid) : ~Mask{0}))
            return false;
        if (&o == &b)
            break;
    }
    return dataFinal(b, lsid);
}

bool
LoadStoreQueue::dataFinal(const Block &b, Lsid lsid) const
{
    const MemEntry &e = b.entries[lsid];
    if (e.addrState != ValState::Final)
        return false;
    std::uint32_t self = ageKey(b, lsid);
    bool spec_overlap = false;
    forIds(e.addr, e.bytes, [&](std::uint16_t id) {
        const Block &o = _ring.inSlot(id >> 5);
        auto l = static_cast<Lsid>(id & 31);
        const MemEntry &st = o.entries[l];
        spec_overlap |= (o.specData & bit(l)) && idKey(id) < self &&
                        rangesOverlap(st.addr, st.bytes, e.addr, e.bytes);
    });
    return !spec_overlap;
}

void
LoadStoreQueue::recheckLoadsOn(Addr addr, unsigned bytes)
{
    forIds(addr, bytes, [&](std::uint16_t id) {
        Block &o = _ring.inSlot(id >> 5);
        o.recheck |= o.spec & bit(id & 31);
    });
}

void
LoadStoreQueue::loadRequest(Cycle now, DynBlockSeq seq, Lsid lsid,
                            Addr addr, ValState addr_state,
                            std::uint32_t wave, std::uint16_t depth)
{
    Block *bp = findBlock(seq);
    if (!bp)
        return; // flushed block: stale message, drop
    Block &b = *bp;
    panic_if(!(b.ops & bit(lsid)), "LSID %u out of range", lsid);
    panic_if(b.stores & bit(lsid), "load request for a store LSID");
    MemEntry &e = b.entries[lsid];

    if (e.addrKnown && wave <= e.inWave)
        return; // stale (reordered) request
    e.inWave = wave;

    bool addr_changed = e.addrKnown && e.addr != addr;
    bool performed = b.performed & bit(lsid);
    if (performed && addr_changed)
        index(b, lsid, false);
    e.addrKnown = true;
    e.addr = addr;
    if (performed && addr_changed)
        index(b, lsid, true);
    // Monotonic: a Final address never goes back to Spec.
    if (addr_state == ValState::Final)
        e.addrState = ValState::Final;
    else if (!addr_changed && e.addrState == ValState::Final)
        addr_state = ValState::Final;
    else
        e.addrState = addr_state;
    e.depth = depth;

    if (_check)
        _check->onLoadAddr(seq, lsid, e.addr, e.addrState);

    if (!performed) {
        if ((b.waiting & bit(lsid)) && !addr_changed) {
            // Address state upgrade while held: nothing to do yet.
            return;
        }
        tryIssueLoad(now, b, lsid);
        return;
    }

    // Re-execution of the load's address (a DSRE wave upstream) or
    // an address state upgrade: recompute and resend as needed.
    Word v = computeLoadValue(b, lsid);
    bool final_now = loadIsFinal(b, lsid);
    if (v != e.lastValue) {
        if (final_now) {
            // A final correction is mandatory: this may be the last
            // event that can ever finalise this load, so it bypasses
            // the resend budget (it IS the commit wave).
            e.deferred = false;
            ++_resends;
            performLoad(now, b, lsid, true, depth, true);
            return;
        }
        if (_p.maxResendsPerLoad != 0 &&
            e.resends >= _p.maxResendsPerLoad) {
            e.deferred = true;
            ++_deferrals;
            return;
        }
        ++e.resends;
        ++_resends;
        performLoad(now, b, lsid, true, depth, false);
    } else if (final_now && e.lastState != ValState::Final) {
        ++_upgrades;
        e.deferred = false;
        performLoad(now, b, lsid, true, depth, true);
    }
}

void
LoadStoreQueue::tryIssueLoad(Cycle now, Block &b, Lsid lsid)
{
    MemEntry &e = b.entries[lsid];
    pred::LoadQuery q{b.seq,  b.archIdx, b.blockId,            lsid,
                      e.addr, e.bytes,   olderStores(b, lsid), e.dep};
    // A replay hold waits for every older store, then expires.
    auto hold_key = std::make_pair(b.archIdx, lsid);
    bool replay_wait = false;
    if (!_replayHolds.empty() && _replayHolds.count(hold_key)) {
        replay_wait = q.older.any();
        if (!replay_wait)
            _replayHolds.erase(hold_key);
    }
    if (replay_wait || _policy->loadMustWait(q)) {
        if (!(b.waiting & bit(lsid))) {
            b.waiting |= bit(lsid);
            ++_numWaiting;
            ++(replay_wait ? _replayWaits : _policyHolds);
        }
        return;
    }
    if (b.waiting & bit(lsid)) {
        b.waiting &= ~bit(lsid);
        --_numWaiting;
    }
    performLoad(now, b, lsid, false, e.depth, loadIsFinal(b, lsid));
}

void
LoadStoreQueue::performLoad(Cycle now, Block &b, Lsid lsid,
                            bool is_resend, std::uint16_t depth,
                            bool final_now)
{
    MemEntry &e = b.entries[lsid];
    // Does any byte come from memory (vs pure store forwarding)?
    bool any_from_mem = false;
    Word value = computeLoadValue(b, lsid, &any_from_mem);
    bool performed = b.performed & bit(lsid);
    // Commit-wave upgrades carry the same value: the LSQ re-sends it
    // without re-accessing the data cache.
    bool value_unchanged = performed && value == e.lastValue;

    Cycle done;
    bool predicted_early = false;
    if (value_unchanged && !_p.chargeUpgradePorts) {
        // Status-only commit-wave upgrade: rides the narrow status
        // path rather than a data port.
        done = now + 1;
    } else {
        Cycle start = bankPort(now, e.addr);
        Cycle fast = start + _p.lsqLatency;
        done = fast;
        if (any_from_mem && !value_unchanged)
            done = std::max(done, _hier->dataRead(start, e.addr));

        // Value-prediction extension: on a long miss, reply with the
        // last value seen at this address immediately; the real
        // value follows as a second wave of the same DSRE protocol.
        if (_p.valuePredictMisses && !is_resend && !performed &&
            done > fast + _p.vpLatencyThreshold) {
            VpEntry &ve =
                _vpTable[(e.addr >> 3) % _vpTable.size()];
            Word guess = ve.addr == e.addr ? ve.value : 0;
            ++_vpPredictions;
            if (guess == value)
                ++_vpCorrect;
            // A guess is never final. A confirmation (guess == real
            // value) deliberately repeats the value on the next wave;
            // exempt it from the value-identity-squash invariant.
            e.lastReplyWhen = std::max(fast, e.lastReplyWhen);
            emitReply(b, lsid, e.lastReplyWhen, guess, ValState::Spec,
                      depth)
                .echo = true;
            predicted_early = true;
            // The real reply below corrects (or confirms) it; when
            // it merely confirms, it travels as a status upgrade.
            value_unchanged = false;
        }
    }
    // An upgrade or resend must not overtake the previous reply on
    // the same link: the commit wave trails the data it confirms.
    done = std::max(done, e.lastReplyWhen);
    e.lastReplyWhen = done;
    if (!any_from_mem && !performed && !predicted_early)
        ++_forwards;

    // Train the last-value table with the true value.
    if (_p.valuePredictMisses) {
        VpEntry &ve = _vpTable[(e.addr >> 3) % _vpTable.size()];
        ve.addr = e.addr;
        ve.value = value;
    }

    if (!performed) {
        ++_loads;
        b.performed |= bit(lsid);
        index(b, lsid, true);
    }
    e.lastValue = value;
    e.lastState = final_now ? ValState::Final : ValState::Spec;
    if (_spec) {
        // A Spec reply may fail only the frontier part of the rule,
        // so the sweep looks at the load again.
        b.spec = final_now ? b.spec & ~bit(lsid) : b.spec | bit(lsid);
        b.recheck =
            final_now ? b.recheck & ~bit(lsid) : b.recheck | bit(lsid);
    }

    LoadReply &r = emitReply(
        b, lsid, done, value, e.lastState,
        static_cast<std::uint16_t>(is_resend ? depth + 1 : depth));
    r.statusOnly = value_unchanged;
    if (_check)
        _check->onLoadReply(r.when, r.seq, r.lsid, r.value, r.state,
                            r.echo);
}

void
LoadStoreQueue::storeResolve(Cycle now, DynBlockSeq seq, Lsid lsid,
                             Addr addr, Word data, ValState addr_state,
                             ValState data_state, std::uint32_t wave,
                             std::uint16_t depth)
{
    // Chaos: hold the store's resolution at the bank entrance for a
    // few cycles, widening the speculation window of younger loads.
    if (_chaos)
        now += _chaos->storeResolveDelay();

    Block *bp = findBlock(seq);
    if (!bp)
        return; // flushed block: stale message, drop
    Block &b = *bp;
    panic_if(!(b.ops & bit(lsid)), "LSID %u out of range", lsid);
    panic_if(!(b.stores & bit(lsid)), "store resolve for a load LSID");
    MemEntry &e = b.entries[lsid];

    bool had_old = !(b.unresolved & bit(lsid));
    if (had_old && wave <= e.inWave)
        return; // stale (reordered) resolve
    e.inWave = wave;
    if (!_spec) {
        addr_state = ValState::Final;
        data_state = ValState::Final;
    }

    Addr old_addr = e.addr;
    bool addr_changed = had_old && e.addr != addr;
    bool data_changed = had_old && e.data != data;
    bool changed = !had_old || addr_changed || data_changed;

    panic_if(had_old && e.addrSt == ValState::Final && addr_changed,
             "protocol violation: store with Final address moved "
             "(seq %llu lsid %u)",
             static_cast<unsigned long long>(seq), lsid);
    panic_if(had_old && e.state == ValState::Final && data_changed,
             "protocol violation: store with Final data changed "
             "(seq %llu lsid %u)",
             static_cast<unsigned long long>(seq), lsid);

    bool state_improved =
        (addr_state == ValState::Final &&
         e.addrSt != ValState::Final) ||
        (data_state == ValState::Final && e.state != ValState::Final);
    if (had_old && !changed && !state_improved)
        return; // pure duplicate

    if (!had_old)
        ++_stores;
    if (addr_changed)
        index(b, lsid, false);
    b.unresolved &= ~bit(lsid);
    e.addr = addr;
    e.data = data;
    if (!had_old || addr_changed)
        index(b, lsid, true);
    // States are sticky-monotonic.
    if (addr_state == ValState::Final)
        e.addrSt = ValState::Final;
    else if (addr_changed || !had_old)
        e.addrSt = addr_state;
    if (data_state == ValState::Final)
        e.state = ValState::Final;
    else if (data_changed || !had_old)
        e.state = data_state;

    if (_check)
        _check->onStoreState(seq, lsid, e.addr, e.data, e.state,
                             e.addrSt);

    _policy->onStoreResolved(seq, b.blockId, lsid);

    // A resolved store with Spec data fails the data rule of the
    // loads on its words; once its data is Final they may pass, so
    // they go back to the sweep (DESIGN.md "Finality frontier").
    bool data_went_final = had_old && (b.specData & bit(lsid)) &&
                           e.state == ValState::Final;
    if (e.addrSt == ValState::Final)
        b.specAddr &= ~bit(lsid);
    if (e.state == ValState::Final)
        b.specData &= ~bit(lsid);
    if (data_went_final)
        recheckLoadsOn(e.addr, e.bytes);

    // A flush-recovery violation may squash this very block: `b` is
    // not used past this point.
    if (changed)
        storeChanged(now, b, lsid, old_addr, had_old, depth);

    // Re-query loads held back by the policy: the store landscape
    // just changed. Issuing a load only clears its own waiting bit.
    for (unsigned a = 0; _numWaiting != 0 && a < _ring.size(); ++a) {
        Block &w = at(a);
        for (Mask m = w.waiting; m; m &= m - 1)
            tryIssueLoad(now, w, low(m));
    }

    sweepFinality(now);

    if (_chaos && _spec)
        injectSpuriousWave(now);
}

void
LoadStoreQueue::storeChanged(Cycle now, const Block &sb, Lsid lsid,
                             Addr old_addr, bool had_old,
                             std::uint16_t depth)
{
    const MemEntry &st = sb.entries[lsid];
    const DynBlockSeq store_seq = sb.seq;
    const BlockId store_block = sb.blockId;
    std::vector<std::uint32_t> &keys = _hitKeys;
    keys.clear();
    gather(st.addr, st.bytes, keys);
    if (had_old)
        gather(old_addr, st.bytes, keys);

    // Younger performed loads on either range, in program order.
    std::vector<Hit> &hits = _hitsScratch;
    hits.clear();
    for (auto it = std::upper_bound(keys.begin(), keys.end(),
                                    ageKey(sb, lsid));
         it != keys.end(); ++it) {
        const Block &b = at(*it >> 5);
        auto l = static_cast<Lsid>(*it & 31);
        if (b.stores & bit(l))
            continue;
        const MemEntry &ld = b.entries[l];
        bool overlap_new =
            rangesOverlap(st.addr, st.bytes, ld.addr, ld.bytes);
        bool overlap_old =
            had_old && rangesOverlap(old_addr, st.bytes, ld.addr, ld.bytes);
        if (!overlap_new && !overlap_old)
            continue;
        bool value_changed = computeLoadValue(b, l) != ld.lastValue;
        bool addr_hit = overlap_new && _p.addrBasedViolations &&
                        _p.recovery == Recovery::Flush;
        if (value_changed || addr_hit)
            hits.push_back({b.seq, l, value_changed});
    }

    for (const Hit &hit : hits) {
        Block *b = findBlock(hit.seq);
        if (!b)
            continue; // flushed by an earlier hit in this batch
        MemEntry &ld = b->entries[hit.lsid];

        ++_violations;
        _violationDistance.sample(hit.seq - store_seq);
        _policy->onViolation(b->blockId, hit.lsid, store_block, lsid);

        if (_p.recovery == Recovery::Dsre) {
            if (hit.value_changed) {
                if (_p.maxResendsPerLoad != 0 &&
                    ld.resends >= _p.maxResendsPerLoad) {
                    // Storm throttle: batch further corrections into
                    // the commit wave (sweepFinality sends them).
                    ld.deferred = true;
                    ++_deferrals;
                } else {
                    ++ld.resends;
                    ++_resends;
                    performLoad(now, *b, hit.lsid, true, depth,
                                loadIsFinal(*b, hit.lsid));
                }
            }
        } else {
            // Forward-progress guarantee: replay this dynamic load
            // conservatively after the flush (see _replayHolds).
            _replayHolds.emplace(b->archIdx, hit.lsid);
            _flushRequests.push_back({hit.seq, b->blockId, hit.lsid,
                                      store_seq, store_block, lsid});
            // Squash the load's block and everything younger now:
            // every remaining hit is younger, so they all drop.
            flushFrom(hit.seq);
        }
    }
}

void
LoadStoreQueue::sweepFinality(Cycle now)
{
    if (!_spec)
        return;
    // The finality frontier: the oldest store that is unresolved or
    // has a Spec address. loadIsFinal fails on it for every younger
    // load, so the sweep stops there, and holds the address part of
    // the rule for every older one, so only dataFinal is left.
    unsigned front = 0;
    while (front < _ring.size() && at(front).specAddr == 0)
        ++front;
    Mask front_below =
        front < _ring.size() ? below(low(at(front).specAddr)) : 0;
    for (unsigned a = 0; a < _ring.size() && a <= front; ++a) {
        Block &b = at(a);
        // Only loads some event marked can have turned final.
        // Snapshot: performLoad clears bits as the sweep goes.
        Mask m = b.spec & b.recheck;
        if (a == front)
            m &= front_below;
        for (; m; m &= m - 1) {
            Lsid l = low(m);
            b.recheck &= ~bit(l);
            if (!dataFinal(b, l))
                continue;
            MemEntry &e = b.entries[l];
            Word v = computeLoadValue(b, l);
            panic_if(v != e.lastValue && !e.deferred,
                     "finality sweep found a changed value that no "
                     "store event reported (seq %llu lsid %u)",
                     static_cast<unsigned long long>(b.seq), l);
            ++(v != e.lastValue ? _resends : _upgrades);
            e.deferred = false;
            performLoad(now, b, l, true, e.depth, true);
        }
    }
}

void
LoadStoreQueue::injectSpuriousWave(Cycle now)
{
    unsigned spec = 0;
    for (unsigned a = 0; a < _ring.size(); ++a)
        spec += std::popcount(at(a).spec);
    if (spec == 0 || !_chaos->spuriousViolation())
        return;
    // The pick-th spec load in (seq, lsid) order.
    auto pick = static_cast<unsigned>(_chaos->pickIndex(spec));
    unsigned a = 0;
    for (; pick >= static_cast<unsigned>(std::popcount(at(a).spec)); ++a)
        pick -= std::popcount(at(a).spec);
    Block &b = at(a);
    Mask m = b.spec;
    for (; pick != 0; --pick)
        m &= m - 1;
    Lsid lsid = low(m);
    MemEntry &e = b.entries[lsid];
    _chaos->countSpurious();

    // A transient wrong value, then the true value one cycle later.
    // The entry's own record is untouched; downstream sees a genuine
    // DSRE correction storm that must converge to the same state.
    // Both waves are echoes the value-identity-squash invariant must
    // not flag.
    Cycle when = std::max(now, e.lastReplyWhen);
    emitReply(b, lsid, when, e.lastValue ^ 1, ValState::Spec, e.depth)
        .echo = true;
    emitReply(b, lsid, when + 1, e.lastValue, ValState::Spec, e.depth)
        .echo = true;
    e.lastReplyWhen = when + 1;
}

bool
LoadStoreQueue::blockMemFinal(DynBlockSeq seq) const
{
    const Block *b = findBlock(seq);
    panic_if(!b, "blockMemFinal on unknown seq");
    // Every store resolved and every load performed and not held;
    // under DSRE, all of them Final too.
    return b->unresolved == 0 && b->waiting == 0 &&
           b->performed == (b->ops & ~b->stores) &&
           (!_spec || (b->specAddr | b->specData | b->spec) == 0);
}

void
LoadStoreQueue::commitBlock(Cycle now, DynBlockSeq seq)
{
    const Block *b = findBlock(seq);
    panic_if(!b, "commit of unknown seq");
    panic_if(b != &_ring.oldest(),
             "commit of seq %llu but older blocks are in flight",
             static_cast<unsigned long long>(seq));
    panic_if(!blockMemFinal(seq), "commit of non-final block");

    for (Mask m = b->stores; m; m &= m - 1) {
        const MemEntry &e = b->entries[low(m)];
        _mem->write(e.addr, e.bytes, e.data);
        (void)_hier->dataWrite(now, e.addr); // drain occupancy
    }
    unindexBlock(*b);
    _ring.popOldest();
    if (_check)
        _check->onBlockRetired(seq);
}

std::string
LoadStoreQueue::debugState() const
{
    auto fin = [](ValState st) { return st == ValState::Final; };
    std::string out;
    for (unsigned a = 0; a < _ring.size(); ++a) {
        const Block &b = at(a);
        auto seq = static_cast<unsigned long long>(b.seq);
        Mask loads = b.ops & ~b.stores;
        Mask open = b.specAddr | b.specData | b.unresolved |
                    (loads & (~b.performed | b.waiting | b.spec));
        for (Mask m = open; m; m &= m - 1) {
            Lsid l = low(m);
            const MemEntry &e = b.entries[l];
            if (b.stores & bit(l)) {
                out += strfmt("  st seq=%llu lsid=%u resolved=%d "
                              "addrFinal=%d dataFinal=%d\n",
                              seq, l, !(b.unresolved & bit(l)),
                              fin(e.addrSt), fin(e.state));
            } else {
                out += strfmt("  ld seq=%llu lsid=%u performed=%d "
                              "waiting=%d deferred=%d addrFinal=%d "
                              "final=%d\n",
                              seq, l, bool(b.performed & bit(l)),
                              bool(b.waiting & bit(l)), e.deferred,
                              fin(e.addrState), fin(e.lastState));
            }
        }
    }
    return out;
}

void
LoadStoreQueue::flushFrom(DynBlockSeq from_seq)
{
    while (!_ring.empty() && _ring.youngest().seq >= from_seq) {
        const Block &b = _ring.youngest();
        unindexBlock(b);
        for (Mask m = b.waiting; m; m &= m - 1)
            --_numWaiting; // few bits; std::popcount is a libgcc call
        _ring.popYoung();
    }
    _policy->onFlush(from_seq);
    if (_check)
        _check->onFlushFrom(from_seq);
}

} // namespace edge::lsq
