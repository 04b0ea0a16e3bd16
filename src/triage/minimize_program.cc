/**
 * @file
 * Program-level delta debugging (triage::minimizeProgram): shrink a
 * failing program itself, not just its fault schedule. Phase 1 drops
 * whole hyperblocks (exits to removed blocks loop back to the entry);
 * phase 2 drops observable effects — stores and register writes —
 * and then garbage-collects the dataflow feeding only removed
 * effects. Both phases ride the deterministic minimizeOrdinals core,
 * so the result is identical at any thread count.
 */

#include "triage/minimize.hh"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/logging.hh"
#include "compiler/ref_executor.hh"
#include "sim/run_pool.hh"

namespace edge::triage {

namespace {

using Ordinals = std::vector<std::uint64_t>;

/** Cap on the reference run of the *original* program. */
constexpr std::uint64_t kRefCap = 10'000'000;

bool
has(const Ordinals &sorted, std::uint64_t v)
{
    return std::binary_search(sorted.begin(), sorted.end(), v);
}

/**
 * Keep the entry block plus the blocks named in `keep` (sorted
 * non-entry ids), remapping ids; every exit to a dropped block is
 * redirected to the entry block. Redirecting to entry (rather than
 * halting) keeps loops looping, so a shrunk program still builds up
 * the in-flight block pressure most failures need; termination is
 * not assumed — the candidate tester re-checks it on the reference.
 * Exit tables keep their *length*, so a dynamically computed exit
 * index stays in range.
 */
isa::Program
pruneBlocks(const isa::Program &orig, const Ordinals &keep)
{
    constexpr BlockId kDropped = isa::kHaltBlock;
    std::vector<BlockId> new_id(orig.numBlocks(), kDropped);
    std::vector<BlockId> kept;
    for (BlockId b = 0; b < orig.numBlocks(); ++b) {
        if (b == orig.entry() || has(keep, b)) {
            new_id[b] = static_cast<BlockId>(kept.size());
            kept.push_back(b);
        }
    }

    isa::Program out(orig.name());
    out.initRegs() = orig.initRegs();
    out.memImage() = orig.memImage();
    const BlockId new_entry = new_id[orig.entry()];
    for (BlockId b : kept) {
        isa::Block nb = orig.block(b);
        for (BlockId &succ : nb.exits()) {
            if (succ == isa::kHaltBlock)
                continue;
            succ = new_id[succ] == kDropped ? new_entry : new_id[succ];
        }
        out.addBlock(std::move(nb));
    }
    out.setEntry(new_entry);
    return out;
}

/** Effects are enumerated per block: its stores, then its writes. */
std::size_t
countEffects(const isa::Program &prog)
{
    std::size_t n = 0;
    for (BlockId b = 0; b < prog.numBlocks(); ++b) {
        n += prog.block(b).numStores();
        n += prog.block(b).writes().size();
    }
    return n;
}

/**
 * Keep only the effects named in `keep` (sorted global ordinals in
 * countEffects order) and garbage-collect everything feeding only
 * dropped effects. Liveness is a fixpoint — fanout trees target
 * *earlier* slots, so a single reverse pass is not enough. Targets
 * are re-packed, write indices and slots renumbered, LSIDs
 * re-densified over the surviving memory ops, and reads left with no
 * targets dropped, so the result is validator-clean by construction.
 */
isa::Program
pruneEffects(const isa::Program &orig, const Ordinals &keep)
{
    isa::Program out(orig.name());
    out.initRegs() = orig.initRegs();
    out.memImage() = orig.memImage();

    std::uint64_t ordinal = 0;
    auto next_kept = [&]() { return has(keep, ordinal++); };

    for (BlockId b = 0; b < orig.numBlocks(); ++b) {
        const isa::Block &blk = orig.block(b);
        const std::vector<isa::Instruction> &insts = blk.insts();

        std::vector<char> keep_store(insts.size(), 0);
        for (std::size_t s = 0; s < insts.size(); ++s)
            if (isa::isStore(insts[s].op))
                keep_store[s] = next_kept();
        std::vector<char> keep_write(blk.writes().size(), 0);
        for (std::size_t w = 0; w < blk.writes().size(); ++w)
            keep_write[w] = next_kept();

        // Roots: the branch and every kept store. An instruction is
        // live iff it (transitively) feeds a root or a kept write.
        std::vector<char> live(insts.size(), 0);
        for (std::size_t s = 0; s < insts.size(); ++s)
            if (isa::isBranch(insts[s].op) ||
                (isa::isStore(insts[s].op) && keep_store[s]))
                live[s] = 1;
        for (bool changed = true; changed;) {
            changed = false;
            for (std::size_t s = 0; s < insts.size(); ++s) {
                if (live[s] || isa::isStore(insts[s].op))
                    continue;
                for (const isa::Target &t : insts[s].targets) {
                    if (!t.valid())
                        continue;
                    bool feeds = t.kind == isa::TargetKind::Operand
                                     ? live[t.index] != 0
                                     : keep_write[t.index] != 0;
                    if (feeds) {
                        live[s] = 1;
                        changed = true;
                        break;
                    }
                }
            }
        }

        isa::Block nb(blk.name());

        constexpr std::uint16_t kGone = 0xffff;
        std::vector<std::uint16_t> write_map(blk.writes().size(), kGone);
        for (std::size_t w = 0; w < blk.writes().size(); ++w) {
            if (keep_write[w]) {
                write_map[w] =
                    static_cast<std::uint16_t>(nb.writes().size());
                nb.writes().push_back(blk.writes()[w]);
            }
        }

        std::vector<std::uint16_t> slot_map(insts.size(), kGone);
        Lsid lsid = 0;
        for (std::size_t s = 0; s < insts.size(); ++s) {
            if (!live[s])
                continue;
            slot_map[s] = static_cast<std::uint16_t>(nb.insts().size());
            isa::Instruction in = insts[s];
            if (isa::isMem(in.op))
                in.lsid = lsid++;
            nb.insts().push_back(in);
        }

        auto remap = [&](const auto &targets) {
            std::array<isa::Target, isa::kMaxTargets> nt{};
            unsigned k = 0;
            for (const isa::Target &t : targets) {
                if (!t.valid())
                    continue;
                if (t.kind == isa::TargetKind::Operand &&
                    slot_map[t.index] != kGone)
                    nt[k++] = isa::Target::toOperand(slot_map[t.index],
                                                     t.operand);
                else if (t.kind == isa::TargetKind::RegWrite &&
                         write_map[t.index] != kGone)
                    nt[k++] = isa::Target::toWrite(write_map[t.index]);
            }
            return nt;
        };

        for (std::size_t s = 0; s < insts.size(); ++s)
            if (live[s])
                nb.insts()[slot_map[s]].targets =
                    remap(insts[s].targets);

        for (const isa::RegRead &rd : blk.reads()) {
            isa::RegRead nr;
            nr.reg = rd.reg;
            nr.targets = remap(rd.targets);
            if (nr.targets[0].valid())
                nb.reads().push_back(nr);
        }

        nb.exits() = blk.exits();
        out.addBlock(std::move(nb));
    }
    out.setEntry(orig.entry());
    return out;
}

/**
 * One ddmin batch: validate each candidate, pre-check that its
 * reference execution halts (the Simulator treats either failure as
 * fatal), then run the survivors as one RunPool grid. A candidate
 * that is invalid or non-halting simply "does not reproduce".
 */
std::vector<char>
testPrograms(const ReproSpec &spec, sim::RunPool &pool,
             std::uint64_t ref_budget,
             const std::vector<isa::Program> &progs)
{
    std::vector<char> verdicts(progs.size(), 0);
    std::vector<sim::RunJob> jobs;
    std::vector<std::size_t> which;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        if (!progs[i].validateAll().empty())
            continue;
        bool halts = false;
        try {
            compiler::RefExecutor ref(progs[i]);
            halts = ref.run(ref_budget).halted;
        } catch (const SimFailure &) {
            // e.g. the executor deadlocks on a pruned graph
        }
        if (!halts)
            continue;
        sim::RunJob job;
        job.program = &progs[i];
        job.config = spec.config;
        job.maxCycles = spec.maxCycles;
        jobs.push_back(std::move(job));
        which.push_back(i);
    }
    std::vector<sim::RunResult> results = pool.runAll(jobs);
    for (std::size_t k = 0; k < results.size(); ++k)
        verdicts[which[k]] =
            static_cast<char>(sameFailureKind(spec, results[k]));
    return verdicts;
}

} // namespace

ProgramMinimizeResult
minimizeProgram(const ReproSpec &spec, const MinimizeOptions &opts)
{
    isa::Program orig = buildProgram(spec.program);
    {
        std::vector<isa::ValidationIssue> issues = orig.validateAll();
        fatal_if(!issues.empty(),
                 "minimize: the spec's program is invalid: %s",
                 issues.front().str().c_str());
    }
    compiler::RefExecutor::Result ref_result =
        compiler::RefExecutor(orig).run(kRefCap);
    fatal_if(!ref_result.halted,
             "minimize: the spec's reference execution does not halt "
             "within %llu blocks",
             static_cast<unsigned long long>(kRefCap));
    // Headroom so a candidate that loops *longer* than the original
    // (a pruned fuel update, say) is cut off rather than spinning to
    // the cap on every probe.
    const std::uint64_t ref_budget = ref_result.dynBlocks * 2 + 4096;

    sim::RunPool pool(opts.threads);
    ProgramMinimizeResult out;
    out.blocksBefore = orig.numBlocks();

    // Phase 1: which non-entry blocks are needed?
    Ordinals block_universe;
    for (BlockId b = 0; b < orig.numBlocks(); ++b)
        if (b != orig.entry())
            block_universe.push_back(b);

    BatchTest block_batch = [&](const std::vector<Ordinals> &cands) {
        std::vector<isa::Program> progs;
        progs.reserve(cands.size());
        for (const Ordinals &c : cands)
            progs.push_back(pruneBlocks(orig, c));
        return testPrograms(spec, pool, ref_budget, progs);
    };
    MinimizeResult res_blocks =
        minimizeOrdinals(block_universe, block_batch, opts);
    isa::Program shrunk = pruneBlocks(orig, res_blocks.ordinals);
    out.blocksAfter = shrunk.numBlocks();
    out.testsRun += res_blocks.testsRun;
    out.rounds += res_blocks.rounds;

    // Phase 2: which effects of the survivor are needed?
    out.effectsBefore = countEffects(shrunk);
    Ordinals effect_universe(out.effectsBefore);
    std::iota(effect_universe.begin(), effect_universe.end(), 0);

    BatchTest effect_batch = [&](const std::vector<Ordinals> &cands) {
        std::vector<isa::Program> progs;
        progs.reserve(cands.size());
        for (const Ordinals &c : cands)
            progs.push_back(pruneEffects(shrunk, c));
        return testPrograms(spec, pool, ref_budget, progs);
    };
    MinimizeResult res_effects =
        minimizeOrdinals(effect_universe, effect_batch, opts);
    out.program = pruneEffects(shrunk, res_effects.ordinals);
    out.effectsAfter = countEffects(out.program);
    out.testsRun += res_effects.testsRun;
    out.rounds += res_effects.rounds;
    out.converged = res_blocks.converged && res_effects.converged;
    return out;
}

ReproSpec
applyProgram(const ReproSpec &spec, const isa::Program &minimized)
{
    ReproSpec shrunk = spec;
    shrunk.program = embeddedRef(spec.program.kernel, minimized,
                                 spec.program.params.seed);
    shrunk.programHash = programHash(minimized);
    // Re-observe the failure: the cycle and chaos-event schedule of
    // the shrunk program legitimately differ from the original
    // capture, and a stale signature would fail replay's bit-identity
    // check.
    sim::RunResult result = replay(shrunk);
    return captureFromResult(shrunk.program, shrunk.config,
                             shrunk.maxCycles, result);
}

} // namespace edge::triage
