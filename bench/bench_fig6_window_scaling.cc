/**
 * @file
 * Figure 6: scalability with window size — the abstract's central
 * architectural claim ("scaling to window sizes of thousands of
 * instructions with high performance"). IPC as the number of frames
 * grows from 1 (a single 128-instruction block, no speculation
 * across blocks) to 16 (a 2048-instruction window), for the flush
 * baselines and DSRE. Flush recovery throws away ever more work as
 * the window deepens; DSRE keeps scaling.
 */

#include <cstdio>
#include <map>

#include "bench/bench_util.hh"
#include "common/strutil.hh"

using namespace edge;
using namespace edge::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = benchArgs(argc, argv, 1500);
    const std::vector<unsigned> frames = {1, 2, 4, 8, 16};
    const std::vector<std::string> configs = {
        "blind-flush", "storesets-flush", "dsre", "oracle"};
    const std::vector<std::string> kernels = {"bzip2ish", "vprish",
                                              "parserish", "twolfish"};

    // One run per (kernel, config, frames); reused for the geomean.
    std::vector<RunSpec> specs;
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            for (unsigned f : frames) {
                RunSpec spec;
                spec.kernel = k;
                spec.config = c;
                spec.iterations = args.iterations;
                spec.tweak = [f](core::MachineConfig &cfg) {
                    cfg.core.numFrames = f;
                };
                specs.push_back(std::move(spec));
            }
        }
    }
    std::vector<RunRow> rows = runSpecs(specs, args.threads);

    std::map<std::tuple<std::string, std::string, unsigned>, double>
        ipc;
    std::size_t idx = 0;
    for (const auto &k : kernels)
        for (const auto &c : configs)
            for (unsigned f : frames)
                ipc[{k, c, f}] = rows[idx++].result.ipc();

    std::printf("Figure 6: IPC vs window size (frames x 128 insts)\n");
    std::vector<std::string> cols;
    for (unsigned f : frames)
        cols.push_back(strfmt("%u blk", f));
    for (const auto &k : kernels) {
        std::printf("\n[%s]\n", k.c_str());
        printHeader("mechanism", cols, 10);
        for (const auto &c : configs) {
            std::vector<std::string> cells;
            for (unsigned f : frames)
                cells.push_back(fmtF(ipc[{k, c, f}]));
            printRow(c, cells, 10);
        }
    }

    // Geomean speedup of each mechanism at each window over its own
    // 1-frame machine: the scaling curve the paper's claim is about.
    std::printf("\n[geomean speedup over the 1-frame machine]\n");
    printHeader("mechanism", cols, 10);
    for (const auto &c : configs) {
        std::vector<std::string> cells;
        for (unsigned f : frames) {
            std::vector<double> ratios;
            for (const auto &k : kernels)
                ratios.push_back(ipc[{k, c, f}] / ipc[{k, c, 1}]);
            cells.push_back(fmtF(geomean(ratios)));
        }
        printRow(c, cells, 10);
    }
    return finishBench("bench_fig6_window_scaling", args, rows);
}
