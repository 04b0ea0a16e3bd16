/**
 * @file
 * The event-driven cycle engine and its supporting pieces:
 *
 *  - core/scheduler: the calendar-wheel wake list (near window,
 *    overflow heap, wraparound, pruning, idempotence);
 *  - common/arena: the bump arena behind per-block bookkeeping;
 *  - core/program_image: one decode/validate/place per distinct
 *    program, shared read-only across Processors;
 *  - the engine differential: `EngineKind::Tick` and
 *    `EngineKind::Event` must produce bit-identical RunResults —
 *    cycles, every counter, every histogram bucket, and (under chaos)
 *    the same structured failure — across kernels x mechanisms x chaos seeds and across
 *    20 fuzz-generated programs. This is the guardrail that lets the
 *    wake-list engine replace the ticking loop as the default.
 */

#include <gtest/gtest.h>

#include "common/arena.hh"
#include "core/program_image.hh"
#include "core/scheduler.hh"
#include "fuzz/generator.hh"
#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

// ---------------------------------------------------------------
// Scheduler

constexpr Cycle kIdle = core::Scheduler::kIdle;

TEST(Scheduler, EmptyIsIdle)
{
    core::Scheduler s;
    EXPECT_EQ(s.nextAtOrAfter(0), kIdle);
    EXPECT_EQ(s.nextAtOrAfter(1'000'000), kIdle);
}

TEST(Scheduler, NearWakeIsNonConsuming)
{
    core::Scheduler s;
    s.wakeAt(17);
    // The wake stays visible until the caller advances past it.
    EXPECT_EQ(s.nextAtOrAfter(0), 17u);
    EXPECT_EQ(s.nextAtOrAfter(17), 17u);
    EXPECT_EQ(s.nextAtOrAfter(18), kIdle);
}

TEST(Scheduler, EarliestOfSeveralWins)
{
    core::Scheduler s;
    s.wakeAt(90);
    s.wakeAt(40);
    s.wakeAt(70);
    EXPECT_EQ(s.nextAtOrAfter(0), 40u);
    EXPECT_EQ(s.nextAtOrAfter(41), 70u);
    EXPECT_EQ(s.nextAtOrAfter(71), 90u);
    EXPECT_EQ(s.nextAtOrAfter(91), kIdle);
}

TEST(Scheduler, DuplicateWakesAreIdempotent)
{
    core::Scheduler s;
    s.wakeAt(5);
    s.wakeAt(5);
    s.wakeAt(5);
    EXPECT_EQ(s.nextAtOrAfter(0), 5u);
    EXPECT_EQ(s.nextAtOrAfter(6), kIdle);
}

TEST(Scheduler, PastWakeClampsToNowInsteadOfVanishing)
{
    core::Scheduler s;
    EXPECT_EQ(s.nextAtOrAfter(100), kIdle); // window now starts at 100
    s.wakeAt(30); // already due: must surface, not silently drop
    EXPECT_EQ(s.nextAtOrAfter(100), 100u);
}

TEST(Scheduler, FarWakeBeyondTheWheelHorizon)
{
    core::Scheduler s;
    s.wakeAt(2'000'000); // far past the 1024-cycle near window
    s.wakeAt(500);
    EXPECT_EQ(s.nextAtOrAfter(0), 500u);
    EXPECT_EQ(s.nextAtOrAfter(501), 2'000'000u);
    EXPECT_EQ(s.nextAtOrAfter(2'000'001), kIdle);
}

TEST(Scheduler, WraparoundDoesNotAliasOldBits)
{
    core::Scheduler s;
    s.wakeAt(5);
    EXPECT_EQ(s.nextAtOrAfter(0), 5u);
    // Advance past the wake; cycle 5's wheel slot is also the slot
    // for cycle 5 + 1024. It must come back empty.
    EXPECT_EQ(s.nextAtOrAfter(6), kIdle);
    EXPECT_EQ(s.nextAtOrAfter(5 + 1024), kIdle);
    // And a genuine wake on the re-used slot still works.
    s.wakeAt(5 + 2048);
    EXPECT_EQ(s.nextAtOrAfter(5 + 1024), 5u + 2048u);
}

TEST(Scheduler, LargeJumpsClearTheWholeWheel)
{
    core::Scheduler s;
    for (Cycle c = 0; c < 1024; ++c)
        s.wakeAt(c);
    EXPECT_EQ(s.nextAtOrAfter(10'000'000), kIdle);
    s.wakeAt(10'000'123);
    EXPECT_EQ(s.nextAtOrAfter(10'000'000), 10'000'123u);
}

TEST(Scheduler, FarWakesMigrateCorrectlyAsTimeAdvances)
{
    core::Scheduler s;
    s.wakeAt(5'000);
    s.wakeAt(6'000);
    // Jump to just before the first far wake: it must be found even
    // though it was registered beyond the original near window.
    EXPECT_EQ(s.nextAtOrAfter(4'999), 5'000u);
    EXPECT_EQ(s.nextAtOrAfter(5'001), 6'000u);
}

// ---------------------------------------------------------------
// Arena

TEST(Arena, AlignedBumpAllocation)
{
    Arena a(256);
    void *p1 = a.alloc(3, 1);
    void *p8 = a.alloc(40, 8);
    void *p64 = a.alloc(10, 64);
    EXPECT_NE(p1, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p64) % 64, 0u);
    EXPECT_GE(a.bytesUsed(), 53u);
    EXPECT_GE(a.bytesReserved(), a.bytesUsed());
}

TEST(Arena, GrowsAcrossChunksAndHandlesOversizeRequests)
{
    Arena a(128);
    // Many small allocations spill into fresh chunks...
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(a.alloc(32, 8), nullptr);
    // ...and a request larger than the chunk size gets its own chunk.
    std::uint16_t *big = a.allocArray<std::uint16_t>(4096);
    ASSERT_NE(big, nullptr);
    big[0] = 1;
    big[4095] = 2; // touch both ends: the region must be real
    EXPECT_EQ(big[0], 1);
    EXPECT_EQ(big[4095], 2);
}

TEST(Arena, ResetRetainsChunksAndReusesMemory)
{
    Arena a(256);
    void *first = a.alloc(64, 8);
    a.alloc(64, 8);
    std::size_t reserved = a.bytesReserved();
    a.reset();
    EXPECT_EQ(a.bytesUsed(), 0u);
    EXPECT_EQ(a.bytesReserved(), reserved); // chunks retained
    // The first post-reset allocation lands back at the start.
    EXPECT_EQ(a.alloc(64, 8), first);
}

// ---------------------------------------------------------------
// ProgramImage

TEST(ProgramImage, PlacementsAreCachedPerGeometry)
{
    wl::KernelParams kp;
    kp.iterations = 10;
    isa::Program prog = wl::build("gzipish", kp);
    core::ProgramImage image(prog);
    EXPECT_EQ(&image.program(), &prog);

    compiler::GridGeom geom; // default 4x4x8
    const std::vector<compiler::Placement> &a = image.placements(geom);
    const std::vector<compiler::Placement> &b = image.placements(geom);
    EXPECT_EQ(&a, &b); // same geometry: the same cached vector
    EXPECT_EQ(a.size(), prog.numBlocks());

    compiler::GridGeom wide = geom;
    wide.cols = 8;
    const std::vector<compiler::Placement> &c = image.placements(wide);
    EXPECT_NE(&a, &c); // distinct geometry: a distinct placement set
    EXPECT_EQ(c.size(), prog.numBlocks());
}

// ---------------------------------------------------------------
// Engine differential: tick vs event must be bit-identical.

void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedBlocks, b.committedBlocks);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.archMatch, b.archMatch);
    EXPECT_EQ(a.error.reason, b.error.reason);
    EXPECT_EQ(a.error.invariant, b.error.invariant);
    EXPECT_EQ(a.error.message, b.error.message);
    EXPECT_EQ(a.error.cycle, b.error.cycle);
    EXPECT_EQ(a.error.seq, b.error.seq);
    EXPECT_EQ(a.rngSeed, b.rngSeed);
    EXPECT_EQ(a.chaosSeed, b.chaosSeed);
    EXPECT_EQ(a.injections.total(), b.injections.total());
    EXPECT_EQ(a.invariantChecks, b.invariantChecks);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.resends, b.resends);
    EXPECT_EQ(a.reexecs, b.reexecs);
    EXPECT_EQ(a.upgrades, b.upgrades);
    // The full counter snapshot covers every stat the run produced:
    // a single skipped-but-not-inert cycle anywhere shows up here.
    EXPECT_EQ(a.counters, b.counters);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].first, b.histograms[i].first);
        EXPECT_EQ(a.histograms[i].second.samples(),
                  b.histograms[i].second.samples());
        EXPECT_EQ(a.histograms[i].second.sum(),
                  b.histograms[i].second.sum());
        EXPECT_EQ(a.histograms[i].second.maxValue(),
                  b.histograms[i].second.maxValue());
        EXPECT_EQ(a.histograms[i].second.buckets(),
                  b.histograms[i].second.buckets());
    }
}

/** Jobs for `prog` under both engines: [0..n) tick, [n..2n) event. */
std::vector<sim::RunJob>
dualEngineJobs(const isa::Program &prog,
               const std::vector<std::string> &configs,
               const std::vector<std::uint64_t> &chaos_seeds)
{
    std::vector<sim::RunJob> jobs;
    for (core::EngineKind engine :
         {core::EngineKind::Tick, core::EngineKind::Event}) {
        for (const std::string &config : configs) {
            for (std::uint64_t seed : chaos_seeds) {
                sim::RunJob job;
                job.program = &prog;
                job.config = sim::Configs::byName(config);
                job.config.engine = engine;
                job.config.rngSeed = seed;
                if (seed != 0) {
                    job.config.chaos = chaos::ChaosParams::byProfile(
                        chaos::Profile::Light, seed);
                    job.config.checkInvariants = true;
                }
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

TEST(EngineDifferential, KernelsByMechanismsByChaosSeeds)
{
    // Clean runs (seed 0) plus two chaos-injected seeds, across the
    // mechanisms that exercise every recovery path: flush, DSRE, and
    // the conservative no-speculation baseline.
    const std::vector<std::string> configs = {
        "conservative", "blind-flush", "storesets-flush",
        "dsre",         "dsre-vp",
    };
    const std::vector<std::uint64_t> chaos_seeds = {0, 1, 2};

    for (const char *kernel : {"gzipish", "parserish", "swimish"}) {
        SCOPED_TRACE(kernel);
        wl::KernelParams kp;
        kp.iterations = 150;
        isa::Program prog = wl::build(kernel, kp);

        std::vector<sim::RunJob> jobs =
            dualEngineJobs(prog, configs, chaos_seeds);
        std::vector<sim::RunResult> results =
            sim::RunPool(4).runAll(jobs);

        std::size_t half = jobs.size() / 2;
        ASSERT_EQ(results.size(), half * 2);
        for (std::size_t i = 0; i < half; ++i) {
            SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                         configs[i / chaos_seeds.size()] + ", seed " +
                         std::to_string(
                             chaos_seeds[i % chaos_seeds.size()]) +
                         ")");
            expectIdentical(results[i], results[half + i]);
        }
    }
}

TEST(EngineDifferential, WatchdogFiresAtTheSameCycle)
{
    // A watchdog shorter than the time to the first commit must trip
    // at the same cycle with the same machine dump under both
    // engines, even though the event engine reaches the deadline via
    // a scheduled wake rather than per-cycle polling.
    wl::KernelParams kp;
    kp.iterations = 200;
    isa::Program prog = wl::build("gzipish", kp);

    sim::RunJob tick;
    tick.program = &prog;
    tick.config = sim::Configs::byName("dsre");
    tick.config.engine = core::EngineKind::Tick;
    tick.config.core.watchdogCycles = 1;
    sim::RunJob event = tick;
    event.config.engine = core::EngineKind::Event;

    std::vector<sim::RunResult> r = sim::RunPool(2).runAll({tick, event});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].error.reason, chaos::SimError::Reason::Watchdog);
    expectIdentical(r[0], r[1]);
}

TEST(EngineDifferential, TwentyFuzzSeedsWithChaos)
{
    // Random hyperblock programs are the adversarial input the
    // hand-written kernels can't provide: odd block shapes, dense
    // store aliasing, deep predicate chains. 20 seeds x 2 configs,
    // chaos-injected, both engines — identical results or identical
    // structured failures.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        isa::Program prog = fuzz::generate(seed);

        std::vector<sim::RunJob> jobs =
            dualEngineJobs(prog, {"dsre", "storesets-flush"}, {seed});
        std::vector<sim::RunResult> results =
            sim::RunPool(4).runAll(jobs);

        std::size_t half = jobs.size() / 2;
        ASSERT_EQ(results.size(), half * 2);
        for (std::size_t i = 0; i < half; ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            expectIdentical(results[i], results[half + i]);
        }
    }
}

} // namespace
