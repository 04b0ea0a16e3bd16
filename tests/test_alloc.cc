/**
 * @file
 * The simulated-block hot path allocates nothing once it is warm.
 * This binary replaces the global operator new with a counting
 * version, runs a Processor on one kernel at two iteration counts
 * and checks that the allocations made inside run() do not grow with
 * the number of simulated blocks: every per-block structure (register
 * frames, LSQ blocks and address index, in-flight contexts, outboxes,
 * mesh pools, the engine's wake list) is reused in place.
 *
 * What a longer run may still add is a handful of allocations that
 * do not scale with blocks: a reused buffer reaching a new
 * high-water mark (a larger burst of messages or node events, a
 * deeper wave for a histogram) and the first write to a simulated
 * memory page.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "core/processor.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align *
                                                  align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace edge {
namespace {

struct Counted
{
    std::uint64_t allocs = 0;
    std::uint64_t fetchedBlocks = 0;
};

/** Heap allocations inside Processor::run() for one 16-frame run. */
Counted
allocsInRun(const std::string &config, std::uint64_t iterations)
{
    core::MachineConfig cfg = sim::Configs::byName(config);
    cfg.core.numFrames = 16;
    sim::Simulator sim(wl::build("parserish", {iterations, 1}), cfg);
    sim.prepare();
    StatSet stats("alloc");
    core::Processor proc(cfg, sim.program(), &sim.oracleDb(), stats);

    g_allocs = 0;
    g_counting = true;
    core::Processor::Result r = proc.run(500'000'000);
    g_counting = false;

    // The committed path is checked against the reference as it
    // commits, so a halted run is a correct one.
    EXPECT_TRUE(r.halted) << r.error.message;
    return {g_allocs.load(), stats.counterValue("core.fetched_blocks")};
}

class AllocPerBlock : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllocPerBlock, RunAllocatesNothingPerSimulatedBlock)
{
    Counted shortRun = allocsInRun(GetParam(), 200);
    Counted longRun = allocsInRun(GetParam(), 800);
    auto extraBlocks = static_cast<std::int64_t>(longRun.fetchedBlocks -
                                                 shortRun.fetchedBlocks);
    auto extraAllocs = static_cast<std::int64_t>(longRun.allocs) -
                       static_cast<std::int64_t>(shortRun.allocs);
    ASSERT_GT(extraBlocks, 1000);
    // An allocation made once per simulated block, or once per few,
    // adds thousands here; high-water growth adds a handful.
    EXPECT_LT(extraAllocs * 100, extraBlocks)
        << "short run: " << shortRun.allocs << " allocations over "
        << shortRun.fetchedBlocks << " fetched blocks; long run: "
        << longRun.allocs << " over " << longRun.fetchedBlocks;
}

INSTANTIATE_TEST_SUITE_P(Parserish, AllocPerBlock,
                         ::testing::Values("dsre", "storesets-flush"),
                         [](const auto &param_info) {
                             std::string n = param_info.param;
                             std::erase(n, '-');
                             return n;
                         });

} // namespace
} // namespace edge
