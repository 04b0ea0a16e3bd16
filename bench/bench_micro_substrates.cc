/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates
 * themselves (host-side performance, not simulated cycles): cache
 * timestamp accesses, mesh routing and send/deliver, sparse-memory
 * traffic, block construction + placement, functional reference
 * execution, an execution node's issue scan over a 16-frame window,
 * mapping a placed block onto the grid and clearing it again,
 * the register unit over a full window, the LSQ's two hot paths
 * (store resolution over a full window, policy-gated load issue), and
 * a full end-to-end simulated kernel.
 * These guard against accidental slowdowns of the simulator.
 */

#include <benchmark/benchmark.h>

#include <bit>

#include "common/rng.hh"
#include "compiler/builder.hh"
#include "compiler/placement.hh"
#include "compiler/ref_executor.hh"
#include "core/exec_node.hh"
#include "core/reg_unit.hh"
#include "lsq/lsq.hh"
#include "mem/cache.hh"
#include "mem/sparse_memory.hh"
#include "net/mesh.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

static void
BM_CacheAccess(benchmark::State &state)
{
    StatSet stats("bm");
    mem::CacheParams p;
    p.sizeBytes = 32 * 1024;
    mem::Cache cache(p, nullptr, stats);
    Rng rng(7);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(++now, rng.below(1 << 20), false));
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_SparseMemoryRw(benchmark::State &state)
{
    mem::SparseMemory mem;
    Rng rng(11);
    for (auto _ : state) {
        Addr a = rng.below(1 << 22);
        mem.write(a, 8, a);
        benchmark::DoNotOptimize(mem.read(a, 8));
    }
}
BENCHMARK(BM_SparseMemoryRw);

static void
BM_MeshSendDeliver(benchmark::State &state)
{
    StatSet stats("bm");
    net::MeshParams p;
    net::Mesh<std::uint64_t> mesh(p, stats);
    Rng rng(13);
    Cycle now = 0;
    std::uint64_t sink = 0;
    // The processor's order: deliver what has arrived by `now`, then
    // send from `now`, so every message is delivered on time.
    for (auto _ : state) {
        mesh.deliver(now, [&](net::Coord, std::uint64_t &&v) { sink += v; });
        net::Coord src{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        net::Coord dst{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        mesh.send(now, src, dst, sink);
        ++now;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MeshSendDeliver);

/**
 * One execution node with 16 frames x 8 slots of two-operand adds.
 * Even frames have both operands (they execute once, then idle until
 * a new wave), odd frames wait for operands that never come. Each
 * iteration re-arms four executed slots with a changed value, as a
 * DSRE wave does, and ticks the node until it has no work left.
 */
static void
BM_ExecNodeTick(benchmark::State &state)
{
    core::CoreParams p;
    p.numFrames = 16;
    StatSet stats("bm");
    core::NodeStats ns{stats.counter("core.alu_issues", ""),
                       stats.counter("core.alu_reexecs", ""),
                       stats.counter("core.upgrades", ""),
                       stats.counter("core.squashes", ""),
                       stats.histogram("core.wave_depth", "")};
    core::ExecNode node(p, ns);
    isa::Instruction add;
    add.op = isa::Opcode::ADD;
    add.targets[0] = isa::Target::toWrite(0);
    for (unsigned f = 0; f < p.numFrames; ++f) {
        for (unsigned l = 0; l < p.slotsPerNode; ++l) {
            node.mapInst(f, l, f + 1, static_cast<SlotId>(l), add);
            if (f % 2 == 0) {
                node.deliver(f, l, 0, f, ValState::Spec, 1, 0);
                node.deliver(f, l, 1, l, ValState::Spec, 1, 0);
            }
        }
    }
    Cycle now = 0;
    std::uint32_t wave = 1;
    unsigned next = 0;
    std::int64_t ticks = 0;
    for (auto _ : state) {
        ++wave;
        for (unsigned k = 0; k < 4; ++k, next = (next + 7) % 64) {
            unsigned f = 2 * (next / p.slotsPerNode);
            unsigned l = next % p.slotsPerNode;
            node.deliver(f, l, 0, wave, ValState::Spec, wave, 0);
        }
        while (node.hasWork()) {
            benchmark::DoNotOptimize(node.tick(++now));
            node.events().clear();
            ++ticks;
        }
    }
    state.SetItemsProcessed(ticks);
}
BENCHMARK(BM_ExecNodeTick);

/**
 * The grid side of fetch/map and commit: a placed 32-instruction
 * block (a read feeding a chain of adds) is mapped onto the 16 nodes
 * of the default grid, one frame per iteration in turn, and the
 * frame is cleared again on every node the block used.
 */
static void
BM_ExecNodeMapClear(benchmark::State &state)
{
    core::CoreParams p;
    p.numFrames = 16;
    StatSet stats("bm");
    core::NodeStats ns{stats.counter("core.alu_issues", ""),
                       stats.counter("core.alu_reexecs", ""),
                       stats.counter("core.upgrades", ""),
                       stats.counter("core.squashes", ""),
                       stats.histogram("core.wave_depth", "")};
    std::vector<core::ExecNode> nodes;
    nodes.reserve(p.numNodes());
    for (unsigned n = 0; n < p.numNodes(); ++n)
        nodes.emplace_back(p, ns, nullptr, n);

    compiler::ProgramBuilder pb("map");
    auto &b = pb.newBlock("chain");
    compiler::Val v = b.readReg(1);
    for (unsigned i = 0; i < 31; ++i)
        v = b.addi(v, 1);
    b.writeReg(2, v);
    b.branchHalt(); // 32 instructions
    isa::Program prog = pb.build();
    const isa::Block &blk = prog.block(0);
    compiler::Placement pl = compiler::placeBlock(
        blk, compiler::GridGeom{p.rows, p.cols, p.slotsPerNode});

    DynBlockSeq seq = 1;
    for (auto _ : state) {
        unsigned frame = static_cast<unsigned>(seq % p.numFrames);
        for (std::size_t s = 0; s < blk.insts().size(); ++s) {
            nodes[pl.nodeOf[s]].mapInst(frame, pl.localOf[s], seq,
                                        static_cast<SlotId>(s),
                                        blk.insts()[s]);
        }
        for (std::uint64_t m = pl.nodeMask; m; m &= m - 1)
            nodes[std::countr_zero(m)].clearFrame(frame);
        ++seq;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(blk.insts().size()));
}
BENCHMARK(BM_ExecNodeMapClear);

static void
BM_RouteXY(benchmark::State &state)
{
    net::MeshGeom geom{5, 5};
    Rng rng(17);
    for (auto _ : state) {
        net::Coord src{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        net::Coord dst{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        benchmark::DoNotOptimize(net::routeXY(geom, src, dst));
    }
}
BENCHMARK(BM_RouteXY);

static void
BM_BuildAndPlaceKernel(benchmark::State &state)
{
    for (auto _ : state) {
        wl::KernelParams kp;
        kp.iterations = 16;
        isa::Program prog = wl::build("gzipish", kp);
        compiler::GridGeom geom;
        for (BlockId b = 0; b < prog.numBlocks(); ++b) {
            benchmark::DoNotOptimize(
                compiler::placeBlock(prog.block(b), geom));
        }
    }
}
BENCHMARK(BM_BuildAndPlaceKernel);

static void
BM_RefExecutor(benchmark::State &state)
{
    wl::KernelParams kp;
    kp.iterations = 1000;
    isa::Program prog = wl::build("bzip2ish", kp);
    for (auto _ : state) {
        compiler::RefExecutor ref(prog);
        benchmark::DoNotOptimize(ref.run(100000));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1000);
}
BENCHMARK(BM_RefExecutor);

/**
 * A full 16-frame LSQ window over blocks of 8 loads interleaved with
 * 8 stores (LSID order ld, st, ld, st, ...), all aliasing a 64-word
 * region. Each benchmark iteration maps the window, performs every
 * load, resolves every store oldest first, then commits the window.
 */
struct LsqWindow
{
    static constexpr unsigned kFrames = 16;
    static constexpr unsigned kPairs = 8;

    LsqWindow(lsq::Recovery recovery, pred::DepPolicy dep_policy)
        : hier(mem::HierarchyParams{}, stats),
          policy(pred::makeDependencePredictor(dep_policy, nullptr, stats)),
          queue(params(recovery), &hier, &memory, policy.get(),
                stats, kFrames)
    {
        compiler::ProgramBuilder pb("lsq");
        auto &b = pb.newBlock("pairs");
        compiler::Val a = b.readReg(1);
        for (unsigned i = 0; i < kPairs; ++i)
            b.store(a, b.load(a, 8, 8 * i), 8, 8 * i);
        b.branchHalt();
        prog = std::make_unique<isa::Program>(pb.build());
    }

    static lsq::LsqParams
    params(lsq::Recovery recovery)
    {
        lsq::LsqParams p;
        p.recovery = recovery;
        return p;
    }

    /** Run one window; `store_addr` picks each store's address. */
    template <typename StoreAddr>
    void
    window(StoreAddr store_addr)
    {
        const isa::Block &blk = prog->block(0);
        DynBlockSeq first = seq;
        for (unsigned f = 0; f < kFrames; ++f, ++seq)
            queue.mapBlock(seq, seq, 0, blk);
        for (DynBlockSeq s = first; s < seq; ++s) {
            for (Lsid l = 0; l < 2 * kPairs; l += 2) {
                Addr a = 0x1000 + 8 * ((s * 7 + l) % 64);
                queue.loadRequest(now, s, l, a, ValState::Final, 1, 0);
            }
        }
        for (DynBlockSeq s = first; s < seq; ++s) {
            for (Lsid l = 1; l < 2 * kPairs; l += 2) {
                queue.storeResolve(++now, s, l, store_addr(s, l), s + l,
                                   ValState::Final, ValState::Final, 1,
                                   0);
                queue.replies().clear();
            }
        }
        for (DynBlockSeq s = first; s < seq; ++s)
            queue.commitBlock(++now, s);
    }

    StatSet stats{"bm"};
    mem::SparseMemory memory;
    mem::Hierarchy hier;
    std::unique_ptr<pred::DependencePredictor> policy;
    lsq::LoadStoreQueue queue;
    std::unique_ptr<isa::Program> prog;
    DynBlockSeq seq = 1;
    Cycle now = 0;
};

static void
BM_LsqStoreResolveFullWindow(benchmark::State &state)
{
    // DSRE: every store lands under performed younger loads of the
    // same 64-word region, so each resolve scans for victims, resends
    // changed values and advances the commit wave.
    LsqWindow w(lsq::Recovery::Dsre, pred::DepPolicy::Blind);
    for (auto _ : state) {
        w.window([](DynBlockSeq s, Lsid l) {
            return 0x1000 + 8 * ((s * 5 + l) % 64);
        });
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            LsqWindow::kFrames * LsqWindow::kPairs);
}
BENCHMARK(BM_LsqStoreResolveFullWindow);

static void
BM_LsqLoadIssueWithOlderUnresolved(benchmark::State &state)
{
    // Conservative issue: every load waits on all older unresolved
    // stores, and each store resolve re-queries every waiting load.
    // Stores go to a disjoint region, so nothing violates.
    LsqWindow w(lsq::Recovery::Flush, pred::DepPolicy::Conservative);
    for (auto _ : state) {
        w.window([](DynBlockSeq s, Lsid l) {
            return 0x8000 + 8 * ((s * 5 + l) % 64);
        });
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            LsqWindow::kFrames * LsqWindow::kPairs);
}
BENCHMARK(BM_LsqLoadIssueWithOlderUnresolved);

static void
BM_RegUnitWindow(benchmark::State &state)
{
    // A full 16-frame window of two alternating shapes that both read
    // r1-r4: one writes r1-r4, the other r5-r8. So every read after
    // the first block subscribes across blocks, and half of them skip
    // a younger block that does not write the register. Each iteration
    // maps the window, delivers every write Spec and then as a Final
    // upgrade, and commits oldest first.
    constexpr unsigned kFrames = 16;
    constexpr unsigned kRegs = 4;
    compiler::ProgramBuilder pb("regs");
    for (unsigned shape = 0; shape < 2; ++shape) {
        auto &b = pb.newBlock(shape == 0 ? "low" : "high");
        for (unsigned r = 1; r <= kRegs; ++r)
            b.writeReg(r + shape * kRegs, b.addi(b.readReg(r), 1));
        b.branchHalt();
    }
    isa::Program prog = pb.build();
    core::CoreParams params;
    params.numFrames = kFrames;
    StatSet stats("bm");
    core::RegUnit unit(params, prog.initRegs(), stats);
    std::vector<core::RegForward> &out = unit.forwards();
    DynBlockSeq seq = 1;
    Cycle now = 0;
    for (auto _ : state) {
        DynBlockSeq first = seq;
        for (unsigned f = 0; f < kFrames; ++f, ++seq) {
            unit.mapBlock(now, seq, prog.block(f % 2));
            out.clear();
        }
        for (DynBlockSeq s = first; s < seq; ++s) {
            for (unsigned w = 0; w < kRegs; ++w) {
                unit.writeArrived(++now, s, w, s + w, ValState::Spec, 1, 0);
                out.clear();
                unit.writeArrived(++now, s, w, s + w, ValState::Final, 2,
                                  0);
                out.clear();
            }
        }
        for (DynBlockSeq s = first; s < seq; ++s) {
            benchmark::DoNotOptimize(unit.blockWritesFinal(s, true));
            unit.commitBlock(s);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kFrames);
}
BENCHMARK(BM_RegUnitWindow);

static void
BM_EndToEndSimulatedKernel(benchmark::State &state)
{
    for (auto _ : state) {
        wl::KernelParams kp;
        kp.iterations = 200;
        sim::Simulator s(wl::build("twolfish", kp),
                         sim::Configs::dsre());
        benchmark::DoNotOptimize(s.run());
    }
}
BENCHMARK(BM_EndToEndSimulatedKernel)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
