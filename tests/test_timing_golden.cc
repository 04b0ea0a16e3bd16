/**
 * @file
 * Pinned timing: every kernel x mechanism x {1, 8, 16} frames at 40
 * iterations, plus every kernel under DSRE and blind+flush at 16
 * frames with the `net`, `heavy` and `light` chaos profiles (seeds 1
 * and 2), must reproduce the checked-in table (timing_golden.tsv)
 * exactly — cycles, committed instructions and blocks, and the LSQ /
 * flush counters that carry the paper's science. Architectural
 * correctness alone cannot catch a "performance" change that silently
 * moves Figure 5; this table can. The chaos rows pin the operand
 * mesh's delivery order: duplicates and hop jitter reorder arrivals,
 * so any change to that order moves their cycles.
 *
 * A change that means to move timing regenerates the table and says
 * in its change log which cells moved and why:
 *
 *   ./build/tests/test_timing_golden --regenerate
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.hh"
#include "sim/run_pool.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

bool gRegenerate = false;

constexpr std::uint64_t kIterations = 40;

const std::vector<std::string> kConfigs = {
    "conservative", "blind-flush", "storesets-flush",
    "dsre",         "storesets-dsre", "oracle",
};
const std::vector<unsigned> kFrames = {1, 8, 16};

/** Chaos rows: these mechanisms x profiles x seeds at kChaosFrames. */
const std::vector<std::string> kChaosConfigs = {"dsre", "blind-flush"};
const std::vector<std::string> kChaosProfiles = {"net", "heavy", "light"};
const std::vector<std::uint64_t> kChaosSeeds = {1, 2};
constexpr unsigned kChaosFrames = 16;
const std::vector<std::string> kCounters = {
    "lsq.violations",   "lsq.resends",     "lsq.deferrals",
    "lsq.upgrades",     "lsq.forwards",    "lsq.policy_holds",
    "lsq.replay_waits", "core.viol_flushes", "core.ctrl_flushes",
};

/** The table's tab-separated header line. */
std::string
header()
{
    std::string h =
        "kernel\tconfig\tchaos\tframes\tcycles\tinsts\tblocks";
    for (const std::string &c : kCounters)
        h += "\t" + c;
    return h;
}

std::vector<std::string>
simulateRows()
{
    std::vector<std::string> kernels = wl::kernelNames();
    std::vector<isa::Program> progs;
    progs.reserve(kernels.size());
    wl::KernelParams kp;
    kp.iterations = kIterations;
    for (const std::string &k : kernels)
        progs.push_back(wl::build(k, kp));

    std::vector<sim::RunJob> jobs;
    std::vector<std::string> keys;
    auto add = [&](std::size_t k, const std::string &config,
                   const std::string &profile, std::uint64_t seed,
                   unsigned frames) {
        sim::RunJob job;
        job.program = &progs[k];
        job.config = sim::Configs::byName(config);
        job.config.core.numFrames = frames;
        job.config.chaos = chaos::ChaosParams::byProfile(
            chaos::ChaosParams::profileByName(profile), seed);
        std::string chaos =
            seed ? profile + ":" + std::to_string(seed) : profile;
        jobs.push_back(std::move(job));
        keys.push_back(kernels[k] + "\t" + config + "\t" + chaos +
                       "\t" + std::to_string(frames));
    };
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        for (const std::string &config : kConfigs)
            for (unsigned frames : kFrames)
                add(k, config, "none", 0, frames);
        for (const std::string &config : kChaosConfigs)
            for (const std::string &profile : kChaosProfiles)
                for (std::uint64_t seed : kChaosSeeds)
                    add(k, config, profile, seed, kChaosFrames);
    }

    std::vector<sim::RunResult> results = sim::RunPool(4).runAll(jobs);
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::RunResult &r = results[i];
        EXPECT_TRUE(r.halted && r.archMatch && r.error.ok())
            << keys[i] << ": " << r.error.message;
        std::string row = keys[i] + "\t" + std::to_string(r.cycles) +
                          "\t" + std::to_string(r.committedInsts) +
                          "\t" + std::to_string(r.committedBlocks);
        for (const std::string &c : kCounters)
            row += "\t" + std::to_string(r.counter(c));
        rows.push_back(std::move(row));
    }
    return rows;
}

TEST(TimingGolden, EveryCellMatchesThePinnedTable)
{
    std::vector<std::string> rows = simulateRows();

    if (gRegenerate) {
        std::ofstream out(EDGE_TIMING_GOLDEN);
        ASSERT_TRUE(out) << "cannot write " << EDGE_TIMING_GOLDEN;
        out << header() << "\n";
        for (const std::string &row : rows)
            out << row << "\n";
        std::printf("wrote %zu rows to %s\n", rows.size(),
                    EDGE_TIMING_GOLDEN);
        return;
    }

    std::ifstream in(EDGE_TIMING_GOLDEN);
    ASSERT_TRUE(in) << "missing " << EDGE_TIMING_GOLDEN
                    << " (run with --regenerate)";
    std::string line;
    std::getline(in, line);
    ASSERT_EQ(line, header()) << "table columns changed; regenerate";
    std::vector<std::string> golden;
    while (std::getline(in, line))
        if (!line.empty())
            golden.push_back(line);

    ASSERT_EQ(golden.size(), rows.size()) << "table shape changed";
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], golden[i]) << "columns: " << header();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--regenerate") == 0)
            gRegenerate = true;
        else
            args.push_back(argv[i]);
    }
    int n = static_cast<int>(args.size());
    ::testing::InitGoogleTest(&n, args.data());
    return RUN_ALL_TESTS();
}
