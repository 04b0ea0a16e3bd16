/**
 * @file
 * The paper's claims, checked on the pinned timing table
 * (timing_golden.tsv) without simulating anything. The table pins
 * every cell's cycles exactly; these tests pin what the cells mean, so
 * a `test_timing_golden --regenerate` that moves the science fails
 * here even though the new table matches itself.
 *
 *  - G1 direction: at 16 frames DSRE beats storesets+flush on geomean
 *    cycles over all 14 kernels.
 *  - G3 shape: on Figure 6's kernels, DSRE gains more from 1 to 16
 *    frames than either flush mechanism.
 *  - Figure 7: conservative never violates, and DSRE never flushes on
 *    a violation, chaos rows included.
 *
 * Not asserted: the 8 -> 16 frame gain (DSRE and blind+flush are
 * within 1% on it), anything past 16 frames, and the oracle's zero
 * violations, which parserish breaks (EXPERIMENTS.md, Figure 7).
 */

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using Row = std::map<std::string, std::string>;

std::vector<Row>
loadTable()
{
    std::ifstream in(EDGE_TIMING_GOLDEN);
    std::vector<Row> rows;
    std::string line, field;
    std::vector<std::string> cols;
    if (std::getline(in, line)) {
        std::istringstream ss(line);
        while (std::getline(ss, field, '\t'))
            cols.push_back(field);
    }
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        Row row;
        for (std::size_t i = 0; std::getline(ss, field, '\t'); ++i)
            row[cols.at(i)] = field;
        rows.push_back(std::move(row));
    }
    return rows;
}

const std::vector<Row> &
table()
{
    static const std::vector<Row> rows = loadTable();
    return rows;
}

/** A numeric column; throws (failing the test) if the table lacks it,
 *  so a renamed counter cannot pass a zero check vacuously. */
std::uint64_t
num(const Row &row, const std::string &col)
{
    return std::stoull(row.at(col));
}

/** Cycles of one chaos-free cell; 0 when the table lacks it. */
double
cycles(const std::string &kernel, const std::string &config,
       unsigned frames)
{
    for (const Row &row : table())
        if (row.at("kernel") == kernel && row.at("config") == config &&
            row.at("chaos") == "none" &&
            row.at("frames") == std::to_string(frames))
            return static_cast<double>(num(row, "cycles"));
    ADD_FAILURE() << "no row " << kernel << "/" << config << "/"
                  << frames;
    return 0;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<std::string>
kernels()
{
    std::vector<std::string> names;
    for (const Row &row : table())
        if (names.empty() || names.back() != row.at("kernel"))
            names.push_back(row.at("kernel"));
    return names;
}

TEST(Claims, TableLoads)
{
    ASSERT_FALSE(table().empty()) << "cannot read " << EDGE_TIMING_GOLDEN;
    EXPECT_EQ(kernels().size(), 14u);
}

TEST(Claims, G1DsreBeatsStoreSetsFlushAt16Frames)
{
    std::vector<double> speedups;
    for (const std::string &k : kernels())
        speedups.push_back(cycles(k, "storesets-flush", 16) /
                           cycles(k, "dsre", 16));
    ASSERT_EQ(speedups.size(), 14u);
    EXPECT_GT(geomean(speedups), 1.0);
}

TEST(Claims, G3DsreGainsMostFromAWiderWindow)
{
    auto gain = [](const std::string &config) {
        std::vector<double> g;
        for (const char *k : {"bzip2ish", "vprish", "parserish", "twolfish"})
            g.push_back(cycles(k, config, 1) / cycles(k, config, 16));
        return geomean(g);
    };
    const double dsre = gain("dsre");
    EXPECT_GT(dsre, gain("blind-flush"));
    EXPECT_GT(dsre, gain("storesets-flush"));
}

TEST(Claims, ConservativeNeverViolates)
{
    std::size_t seen = 0;
    for (const Row &row : table()) {
        if (row.at("config") != "conservative")
            continue;
        ++seen;
        EXPECT_EQ(num(row, "lsq.violations"), 0u)
            << row.at("kernel") << " at " << row.at("frames") << " frames";
    }
    EXPECT_EQ(seen, 14u * 3u);
}

TEST(Claims, DsreNeverFlushesOnAViolation)
{
    std::size_t seen = 0, chaos = 0;
    for (const Row &row : table()) {
        if (row.at("config") != "dsre")
            continue;
        ++seen;
        chaos += row.at("chaos") != "none";
        EXPECT_EQ(num(row, "core.viol_flushes"), 0u)
            << row.at("kernel") << " " << row.at("chaos") << " at "
            << row.at("frames") << " frames";
    }
    EXPECT_EQ(seen, 14u * 9u);
    EXPECT_EQ(chaos, 14u * 6u);
}

} // namespace
