#include "triage/result_json.hh"

#include "common/logging.hh"
#include "lsq/lsq.hh"
#include "predictor/dependence.hh"

namespace edge::triage {

namespace {

pred::DepPolicy
depPolicyByName(const std::string &name)
{
    for (pred::DepPolicy p :
         {pred::DepPolicy::Blind, pred::DepPolicy::Conservative,
          pred::DepPolicy::StoreSets, pred::DepPolicy::Oracle}) {
        if (name == pred::depPolicyName(p))
            return p;
    }
    fatal("repro: unknown dependence policy '%s'", name.c_str());
}

lsq::Recovery
recoveryByName(const std::string &name)
{
    for (lsq::Recovery r : {lsq::Recovery::Flush, lsq::Recovery::Dsre}) {
        if (name == lsq::recoveryName(r))
            return r;
    }
    fatal("repro: unknown recovery mechanism '%s'", name.c_str());
}

JsonValue
coreToJson(const core::CoreParams &p)
{
    JsonValue o = JsonValue::object();
    o.set("rows", JsonValue::u64(p.rows));
    o.set("cols", JsonValue::u64(p.cols));
    o.set("slots_per_node", JsonValue::u64(p.slotsPerNode));
    o.set("num_frames", JsonValue::u64(p.numFrames));
    o.set("hop_latency", JsonValue::u64(p.hopLatency));
    o.set("fetch_width", JsonValue::u64(p.fetchWidth));
    o.set("reg_read_latency", JsonValue::u64(p.regReadLatency));
    o.set("reg_ports_per_bank", JsonValue::u64(p.regPortsPerBank));
    o.set("commit_ports_per_node", JsonValue::u64(p.commitPortsPerNode));
    o.set("commit_wave_uses_alu", JsonValue::boolean(p.commitWaveUsesAlu));
    o.set("squash_identical_values",
          JsonValue::boolean(p.squashIdenticalValues));
    o.set("lat_int_alu", JsonValue::u64(p.latIntAlu));
    o.set("lat_int_mul", JsonValue::u64(p.latIntMul));
    o.set("lat_int_div", JsonValue::u64(p.latIntDiv));
    o.set("lat_fp_alu", JsonValue::u64(p.latFpAlu));
    o.set("lat_fp_mul", JsonValue::u64(p.latFpMul));
    o.set("lat_fp_div", JsonValue::u64(p.latFpDiv));
    o.set("lat_ctrl", JsonValue::u64(p.latCtrl));
    o.set("lat_mem_addr", JsonValue::u64(p.latMemAddr));
    o.set("watchdog_cycles", JsonValue::u64(p.watchdogCycles));
    o.set("livelock_interval", JsonValue::u64(p.livelockInterval));
    o.set("livelock_repeats", JsonValue::u64(p.livelockRepeats));
    return o;
}

void
coreFromJson(const JsonValue &o, core::CoreParams *p)
{
    p->rows = static_cast<unsigned>(o.getU64("rows", p->rows));
    p->cols = static_cast<unsigned>(o.getU64("cols", p->cols));
    p->slotsPerNode = static_cast<unsigned>(
        o.getU64("slots_per_node", p->slotsPerNode));
    p->numFrames = static_cast<unsigned>(
        o.getU64("num_frames", p->numFrames));
    p->hopLatency = static_cast<unsigned>(
        o.getU64("hop_latency", p->hopLatency));
    p->fetchWidth = static_cast<unsigned>(
        o.getU64("fetch_width", p->fetchWidth));
    p->regReadLatency = static_cast<unsigned>(
        o.getU64("reg_read_latency", p->regReadLatency));
    p->regPortsPerBank = static_cast<unsigned>(
        o.getU64("reg_ports_per_bank", p->regPortsPerBank));
    p->commitPortsPerNode = static_cast<unsigned>(
        o.getU64("commit_ports_per_node", p->commitPortsPerNode));
    p->commitWaveUsesAlu =
        o.getBool("commit_wave_uses_alu", p->commitWaveUsesAlu);
    p->squashIdenticalValues =
        o.getBool("squash_identical_values", p->squashIdenticalValues);
    p->latIntAlu = static_cast<unsigned>(
        o.getU64("lat_int_alu", p->latIntAlu));
    p->latIntMul = static_cast<unsigned>(
        o.getU64("lat_int_mul", p->latIntMul));
    p->latIntDiv = static_cast<unsigned>(
        o.getU64("lat_int_div", p->latIntDiv));
    p->latFpAlu = static_cast<unsigned>(
        o.getU64("lat_fp_alu", p->latFpAlu));
    p->latFpMul = static_cast<unsigned>(
        o.getU64("lat_fp_mul", p->latFpMul));
    p->latFpDiv = static_cast<unsigned>(
        o.getU64("lat_fp_div", p->latFpDiv));
    p->latCtrl = static_cast<unsigned>(
        o.getU64("lat_ctrl", p->latCtrl));
    p->latMemAddr = static_cast<unsigned>(
        o.getU64("lat_mem_addr", p->latMemAddr));
    p->watchdogCycles = o.getU64("watchdog_cycles", p->watchdogCycles);
    p->livelockInterval =
        o.getU64("livelock_interval", p->livelockInterval);
    p->livelockRepeats = static_cast<unsigned>(
        o.getU64("livelock_repeats", p->livelockRepeats));
}

JsonValue
memToJson(const mem::HierarchyParams &p)
{
    JsonValue o = JsonValue::object();
    o.set("num_dbanks", JsonValue::u64(p.numDBanks));
    o.set("l1d_size_bytes", JsonValue::u64(p.l1dSizeBytes));
    o.set("l1d_assoc", JsonValue::u64(p.l1dAssoc));
    o.set("l1d_hit_latency", JsonValue::u64(p.l1dHitLatency));
    o.set("l1d_mshrs", JsonValue::u64(p.l1dMshrs));
    o.set("l1i_size_bytes", JsonValue::u64(p.l1iSizeBytes));
    o.set("l1i_assoc", JsonValue::u64(p.l1iAssoc));
    o.set("l1i_hit_latency", JsonValue::u64(p.l1iHitLatency));
    o.set("l2_size_bytes", JsonValue::u64(p.l2SizeBytes));
    o.set("l2_assoc", JsonValue::u64(p.l2Assoc));
    o.set("l2_hit_latency", JsonValue::u64(p.l2HitLatency));
    o.set("l2_mshrs", JsonValue::u64(p.l2Mshrs));
    o.set("l2_banks", JsonValue::u64(p.l2Banks));
    o.set("line_bytes", JsonValue::u64(p.lineBytes));
    o.set("dram_latency", JsonValue::u64(p.dramLatency));
    o.set("dram_cycles_per_line", JsonValue::u64(p.dramCyclesPerLine));
    return o;
}

void
memFromJson(const JsonValue &o, mem::HierarchyParams *p)
{
    p->numDBanks = static_cast<unsigned>(
        o.getU64("num_dbanks", p->numDBanks));
    p->l1dSizeBytes = o.getU64("l1d_size_bytes", p->l1dSizeBytes);
    p->l1dAssoc = static_cast<unsigned>(
        o.getU64("l1d_assoc", p->l1dAssoc));
    p->l1dHitLatency = static_cast<unsigned>(
        o.getU64("l1d_hit_latency", p->l1dHitLatency));
    p->l1dMshrs = static_cast<unsigned>(
        o.getU64("l1d_mshrs", p->l1dMshrs));
    p->l1iSizeBytes = o.getU64("l1i_size_bytes", p->l1iSizeBytes);
    p->l1iAssoc = static_cast<unsigned>(
        o.getU64("l1i_assoc", p->l1iAssoc));
    p->l1iHitLatency = static_cast<unsigned>(
        o.getU64("l1i_hit_latency", p->l1iHitLatency));
    p->l2SizeBytes = o.getU64("l2_size_bytes", p->l2SizeBytes);
    p->l2Assoc = static_cast<unsigned>(o.getU64("l2_assoc", p->l2Assoc));
    p->l2HitLatency = static_cast<unsigned>(
        o.getU64("l2_hit_latency", p->l2HitLatency));
    p->l2Mshrs = static_cast<unsigned>(o.getU64("l2_mshrs", p->l2Mshrs));
    p->l2Banks = static_cast<unsigned>(o.getU64("l2_banks", p->l2Banks));
    p->lineBytes = static_cast<unsigned>(
        o.getU64("line_bytes", p->lineBytes));
    p->dramLatency = static_cast<unsigned>(
        o.getU64("dram_latency", p->dramLatency));
    p->dramCyclesPerLine = static_cast<unsigned>(
        o.getU64("dram_cycles_per_line", p->dramCyclesPerLine));
}

JsonValue
lsqToJson(const lsq::LsqParams &p)
{
    JsonValue o = JsonValue::object();
    o.set("recovery", JsonValue::str(lsq::recoveryName(p.recovery)));
    o.set("lsq_latency", JsonValue::u64(p.lsqLatency));
    o.set("addr_based_violations",
          JsonValue::boolean(p.addrBasedViolations));
    o.set("max_resends_per_load", JsonValue::u64(p.maxResendsPerLoad));
    o.set("charge_upgrade_ports",
          JsonValue::boolean(p.chargeUpgradePorts));
    o.set("value_predict_misses",
          JsonValue::boolean(p.valuePredictMisses));
    o.set("vp_latency_threshold", JsonValue::u64(p.vpLatencyThreshold));
    o.set("vp_table_size", JsonValue::u64(p.vpTableSize));
    return o;
}

void
lsqFromJson(const JsonValue &o, lsq::LsqParams *p)
{
    p->recovery = recoveryByName(
        o.getString("recovery", lsq::recoveryName(p->recovery)));
    p->lsqLatency = static_cast<unsigned>(
        o.getU64("lsq_latency", p->lsqLatency));
    p->addrBasedViolations =
        o.getBool("addr_based_violations", p->addrBasedViolations);
    p->maxResendsPerLoad = static_cast<unsigned>(
        o.getU64("max_resends_per_load", p->maxResendsPerLoad));
    p->chargeUpgradePorts =
        o.getBool("charge_upgrade_ports", p->chargeUpgradePorts);
    p->valuePredictMisses =
        o.getBool("value_predict_misses", p->valuePredictMisses);
    p->vpLatencyThreshold = static_cast<unsigned>(
        o.getU64("vp_latency_threshold", p->vpLatencyThreshold));
    p->vpTableSize = o.getU64("vp_table_size", p->vpTableSize);
}

JsonValue
chaosToJson(const chaos::ChaosParams &p)
{
    JsonValue o = JsonValue::object();
    o.set("seed", JsonValue::u64(p.seed));
    o.set("profile", JsonValue::str(chaos::profileName(p.profile)));
    o.set("hop_delay_permille", JsonValue::u64(p.hopDelayPermille));
    o.set("hop_delay_max", JsonValue::u64(p.hopDelayMax));
    o.set("duplicate_permille", JsonValue::u64(p.duplicatePermille));
    o.set("duplicate_skew_max", JsonValue::u64(p.duplicateSkewMax));
    o.set("mem_jitter_permille", JsonValue::u64(p.memJitterPermille));
    o.set("mem_jitter_max", JsonValue::u64(p.memJitterMax));
    o.set("store_delay_permille", JsonValue::u64(p.storeDelayPermille));
    o.set("store_delay_max", JsonValue::u64(p.storeDelayMax));
    o.set("spurious_permille", JsonValue::u64(p.spuriousPermille));
    o.set("mutation", JsonValue::str(chaos::mutationName(p.mutation)));
    o.set("mutation_node", JsonValue::u64(p.mutationNode));
    o.set("filter_schedule", JsonValue::boolean(p.filterSchedule));
    JsonValue allowed = JsonValue::array();
    for (std::uint64_t e : p.allowedEvents)
        allowed.push(JsonValue::u64(e));
    o.set("allowed_events", std::move(allowed));
    return o;
}

void
chaosFromJson(const JsonValue &o, chaos::ChaosParams *p)
{
    p->seed = o.getU64("seed", p->seed);
    p->profile = chaos::ChaosParams::profileByName(
        o.getString("profile", chaos::profileName(p->profile)));
    p->hopDelayPermille = static_cast<unsigned>(
        o.getU64("hop_delay_permille", p->hopDelayPermille));
    p->hopDelayMax = static_cast<unsigned>(
        o.getU64("hop_delay_max", p->hopDelayMax));
    p->duplicatePermille = static_cast<unsigned>(
        o.getU64("duplicate_permille", p->duplicatePermille));
    p->duplicateSkewMax = static_cast<unsigned>(
        o.getU64("duplicate_skew_max", p->duplicateSkewMax));
    p->memJitterPermille = static_cast<unsigned>(
        o.getU64("mem_jitter_permille", p->memJitterPermille));
    p->memJitterMax = static_cast<unsigned>(
        o.getU64("mem_jitter_max", p->memJitterMax));
    p->storeDelayPermille = static_cast<unsigned>(
        o.getU64("store_delay_permille", p->storeDelayPermille));
    p->storeDelayMax = static_cast<unsigned>(
        o.getU64("store_delay_max", p->storeDelayMax));
    p->spuriousPermille = static_cast<unsigned>(
        o.getU64("spurious_permille", p->spuriousPermille));
    p->mutation = chaos::mutationByName(
        o.getString("mutation", chaos::mutationName(p->mutation)));
    p->mutationNode = static_cast<unsigned>(
        o.getU64("mutation_node", p->mutationNode));
    p->filterSchedule = o.getBool("filter_schedule", p->filterSchedule);
    p->allowedEvents.clear();
    if (const JsonValue *allowed = o.get("allowed_events"))
        for (const JsonValue &e : allowed->items())
            p->allowedEvents.push_back(e.asU64());
}

} // namespace

JsonValue
configToJson(const core::MachineConfig &cfg)
{
    JsonValue o = JsonValue::object();
    o.set("policy", JsonValue::str(pred::depPolicyName(cfg.policy)));
    o.set("check_committed_path",
          JsonValue::boolean(cfg.checkCommittedPath));
    o.set("rng_seed", JsonValue::u64(cfg.rngSeed));
    o.set("check_invariants", JsonValue::boolean(cfg.checkInvariants));
    o.set("trace_depth", JsonValue::u64(cfg.traceDepth));
    o.set("engine", JsonValue::str(core::engineName(cfg.engine)));
    o.set("core", coreToJson(cfg.core));
    o.set("mem", memToJson(cfg.mem));
    o.set("lsq", lsqToJson(cfg.lsq));
    JsonValue nbp = JsonValue::object();
    nbp.set("table_size", JsonValue::u64(cfg.nbp.tableSize));
    nbp.set("history_bits", JsonValue::u64(cfg.nbp.historyBits));
    o.set("nbp", std::move(nbp));
    o.set("chaos", chaosToJson(cfg.chaos));
    return o;
}

void
configFromJson(const JsonValue &o, core::MachineConfig *cfg)
{
    cfg->policy = depPolicyByName(
        o.getString("policy", pred::depPolicyName(cfg->policy)));
    cfg->checkCommittedPath =
        o.getBool("check_committed_path", cfg->checkCommittedPath);
    cfg->rngSeed = o.getU64("rng_seed", cfg->rngSeed);
    cfg->checkInvariants =
        o.getBool("check_invariants", cfg->checkInvariants);
    cfg->traceDepth = o.getU64("trace_depth", cfg->traceDepth);
    // Absent in pre-engine repro files: keep the config's default so
    // old repros stay loadable (both engines replay identically).
    cfg->engine = core::engineByName(
        o.getString("engine", core::engineName(cfg->engine)));
    if (const JsonValue *core_o = o.get("core"))
        coreFromJson(*core_o, &cfg->core);
    if (const JsonValue *mem_o = o.get("mem"))
        memFromJson(*mem_o, &cfg->mem);
    if (const JsonValue *lsq_o = o.get("lsq"))
        lsqFromJson(*lsq_o, &cfg->lsq);
    if (const JsonValue *nbp_o = o.get("nbp")) {
        cfg->nbp.tableSize = nbp_o->getU64("table_size",
                                           cfg->nbp.tableSize);
        cfg->nbp.historyBits = static_cast<unsigned>(
            nbp_o->getU64("history_bits", cfg->nbp.historyBits));
    }
    if (const JsonValue *chaos_o = o.get("chaos"))
        chaosFromJson(*chaos_o, &cfg->chaos);
}

JsonValue
errorToJson(const chaos::SimError &e)
{
    JsonValue o = JsonValue::object();
    o.set("reason", JsonValue::str(chaos::reasonName(e.reason)));
    o.set("invariant", JsonValue::str(e.invariant));
    o.set("message", JsonValue::str(e.message));
    o.set("cycle", JsonValue::u64(e.cycle));
    o.set("seq", JsonValue::u64(e.seq));
    o.set("node", JsonValue::u64(e.node));
    JsonValue trace = JsonValue::array();
    for (const std::string &line : e.trace)
        trace.push(JsonValue::str(line));
    o.set("trace", std::move(trace));
    return o;
}

void
errorFromJson(const JsonValue &o, chaos::SimError *e)
{
    e->reason = chaos::reasonByName(
        o.getString("reason", chaos::reasonName(e->reason)));
    e->invariant = o.getString("invariant");
    e->message = o.getString("message");
    e->cycle = o.getU64("cycle");
    e->seq = o.getU64("seq");
    e->node = static_cast<std::uint32_t>(o.getU64("node"));
    e->trace.clear();
    if (const JsonValue *trace = o.get("trace"))
        for (const JsonValue &line : trace->items())
            e->trace.push_back(line.asString());
}

JsonValue
resultToJson(const sim::RunResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("cycles", JsonValue::u64(r.cycles));
    o.set("committed_blocks", JsonValue::u64(r.committedBlocks));
    o.set("committed_insts", JsonValue::u64(r.committedInsts));
    o.set("halted", JsonValue::boolean(r.halted));
    o.set("arch_match", JsonValue::boolean(r.archMatch));
    o.set("error", errorToJson(r.error));
    o.set("rng_seed", JsonValue::u64(r.rngSeed));
    o.set("chaos_seed", JsonValue::u64(r.chaosSeed));

    JsonValue inj = JsonValue::object();
    inj.set("hop_delays", JsonValue::u64(r.injections.hopDelays));
    inj.set("duplicates", JsonValue::u64(r.injections.duplicates));
    inj.set("mem_jitters", JsonValue::u64(r.injections.memJitters));
    inj.set("store_delays", JsonValue::u64(r.injections.storeDelays));
    inj.set("spurious_waves",
            JsonValue::u64(r.injections.spuriousWaves));
    o.set("injections", std::move(inj));

    JsonValue sched = JsonValue::array();
    for (const chaos::FaultEvent &e : r.chaosEvents) {
        JsonValue ev = JsonValue::object();
        ev.set("ordinal", JsonValue::u64(e.ordinal));
        ev.set("site", JsonValue::str(chaos::faultSiteName(e.site)));
        ev.set("magnitude", JsonValue::u64(e.magnitude));
        sched.push(std::move(ev));
    }
    o.set("chaos_events", std::move(sched));

    o.set("invariant_checks", JsonValue::u64(r.invariantChecks));

    JsonValue counters = JsonValue::array();
    for (const auto &kv : r.counters) {
        JsonValue c = JsonValue::array();
        c.push(JsonValue::str(kv.first));
        c.push(JsonValue::u64(kv.second));
        counters.push(std::move(c));
    }
    o.set("counters", std::move(counters));

    JsonValue hists = JsonValue::array();
    for (const auto &kv : r.histograms) {
        JsonValue h = JsonValue::object();
        h.set("name", JsonValue::str(kv.first));
        JsonValue buckets = JsonValue::array();
        for (std::uint64_t b : kv.second.buckets())
            buckets.push(JsonValue::u64(b));
        h.set("buckets", std::move(buckets));
        h.set("samples", JsonValue::u64(kv.second.samples()));
        h.set("sum", JsonValue::u64(kv.second.sum()));
        h.set("max", JsonValue::u64(kv.second.maxValue()));
        hists.push(std::move(h));
    }
    o.set("histograms", std::move(hists));

    o.set("violations", JsonValue::u64(r.violations));
    o.set("resends", JsonValue::u64(r.resends));
    o.set("reexecs", JsonValue::u64(r.reexecs));
    o.set("upgrades", JsonValue::u64(r.upgrades));
    o.set("ctrl_flushes", JsonValue::u64(r.ctrlFlushes));
    o.set("viol_flushes", JsonValue::u64(r.violFlushes));
    o.set("alu_issues", JsonValue::u64(r.aluIssues));
    o.set("loads", JsonValue::u64(r.loads));
    o.set("stores", JsonValue::u64(r.stores));
    o.set("forwards", JsonValue::u64(r.forwards));
    o.set("policy_holds", JsonValue::u64(r.policyHolds));
    o.set("deferrals", JsonValue::u64(r.deferrals));
    o.set("squashes", JsonValue::u64(r.squashes));
    return o;
}

bool
resultFromJson(const JsonValue &o, sim::RunResult *r, std::string *err)
{
    if (!o.isObject() || !o.get("cycles") || !o.get("error")) {
        if (err)
            *err = "not a RunResult document";
        return false;
    }
    r->cycles = o.getU64("cycles");
    r->committedBlocks = o.getU64("committed_blocks");
    r->committedInsts = o.getU64("committed_insts");
    r->halted = o.getBool("halted");
    r->archMatch = o.getBool("arch_match");
    if (const JsonValue *e = o.get("error"))
        errorFromJson(*e, &r->error);
    r->rngSeed = o.getU64("rng_seed");
    r->chaosSeed = o.getU64("chaos_seed");

    if (const JsonValue *inj = o.get("injections")) {
        r->injections.hopDelays = inj->getU64("hop_delays");
        r->injections.duplicates = inj->getU64("duplicates");
        r->injections.memJitters = inj->getU64("mem_jitters");
        r->injections.storeDelays = inj->getU64("store_delays");
        r->injections.spuriousWaves = inj->getU64("spurious_waves");
    }

    r->chaosEvents.clear();
    if (const JsonValue *sched = o.get("chaos_events")) {
        for (const JsonValue &ev : sched->items()) {
            chaos::FaultEvent e;
            e.ordinal = ev.getU64("ordinal");
            e.site = chaos::faultSiteByName(
                ev.getString("site", "hop-delay"));
            e.magnitude = ev.getU64("magnitude");
            r->chaosEvents.push_back(e);
        }
    }

    r->invariantChecks = o.getU64("invariant_checks");

    r->counters.clear();
    if (const JsonValue *counters = o.get("counters")) {
        for (const JsonValue &c : counters->items()) {
            if (c.items().size() != 2) {
                if (err)
                    *err = "malformed counter entry";
                return false;
            }
            r->counters.emplace_back(c.items()[0].asString(),
                                     c.items()[1].asU64());
        }
    }

    r->histograms.clear();
    if (const JsonValue *hists = o.get("histograms")) {
        for (const JsonValue &h : hists->items()) {
            std::vector<std::uint64_t> buckets;
            if (const JsonValue *b = h.get("buckets"))
                for (const JsonValue &v : b->items())
                    buckets.push_back(v.asU64());
            Histogram hist;
            hist.restore(std::move(buckets), h.getU64("samples"),
                         h.getU64("sum"), h.getU64("max"));
            r->histograms.emplace_back(h.getString("name"),
                                       std::move(hist));
        }
    }

    r->violations = o.getU64("violations");
    r->resends = o.getU64("resends");
    r->reexecs = o.getU64("reexecs");
    r->upgrades = o.getU64("upgrades");
    r->ctrlFlushes = o.getU64("ctrl_flushes");
    r->violFlushes = o.getU64("viol_flushes");
    r->aluIssues = o.getU64("alu_issues");
    r->loads = o.getU64("loads");
    r->stores = o.getU64("stores");
    r->forwards = o.getU64("forwards");
    r->policyHolds = o.getU64("policy_holds");
    r->deferrals = o.getU64("deferrals");
    r->squashes = o.getU64("squashes");
    return true;
}

} // namespace edge::triage
