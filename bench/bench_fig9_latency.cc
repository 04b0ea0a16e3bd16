/**
 * @file
 * Figure 9: sensitivity to memory latency. As L2 and DRAM latencies
 * grow, unresolved-store windows widen, misspeculation gets more
 * frequent, and a full-window flush throws away more work — so the
 * DSRE-over-flush gap should widen with latency. Reports IPC for
 * store-sets+flush and DSRE across a latency sweep, plus the ratio.
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
    struct Point
    {
        unsigned l2;
        unsigned dram;
    };
    const std::vector<Point> points = {
        {8, 60}, {12, 100}, {18, 200}, {24, 300}};
    const std::vector<std::string> kernels = {"bzip2ish", "gzipish",
                                              "vprish", "ammpish"};

    // One run per (kernel, mechanism, point); reused for the ratio.
    const std::vector<std::string> configs = {"storesets-flush",
                                              "dsre"};
    std::vector<RunSpec> specs;
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            for (std::size_t pi = 0; pi < points.size(); ++pi) {
                Point p = points[pi];
                RunSpec spec;
                spec.kernel = k;
                spec.config = c;
                spec.iterations = args.iterations;
                spec.tweak = [p](core::MachineConfig &cfg) {
                    cfg.mem.l2HitLatency = p.l2;
                    cfg.mem.dramLatency = p.dram;
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
            for (unsigned pi = 0; pi < points.size(); ++pi)
                ipc[{k, c, pi}] = rows[idx++].result.ipc();

    std::printf("Figure 9: IPC vs memory latency (L2/DRAM cycles)\n");
    std::vector<std::string> cols;
    for (const Point &p : points)
        cols.push_back(strfmt("%u/%u", p.l2, p.dram));
    for (const auto &k : kernels) {
        std::printf("\n[%s]\n", k.c_str());
        printHeader("mechanism", cols, 10);
        for (const auto &c : configs) {
            std::vector<std::string> cells;
            for (unsigned pi = 0; pi < points.size(); ++pi)
                cells.push_back(fmtF(ipc[{k, c, pi}]));
            printRow(c, cells, 10);
        }
    }

    std::printf("\n[geomean DSRE speedup over store-sets+flush]\n");
    printHeader("", cols, 10);
    std::vector<std::string> cells;
    for (unsigned pi = 0; pi < points.size(); ++pi) {
        std::vector<double> ratios;
        for (const auto &k : kernels)
            ratios.push_back(ipc[{k, "dsre", pi}] /
                             ipc[{k, "storesets-flush", pi}]);
        cells.push_back(fmtF(geomean(ratios)));
    }
    printRow("speedup", cells, 10);
    return finishBench("bench_fig9_latency", args, rows);
}
