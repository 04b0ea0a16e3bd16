/**
 * @file
 * Figure 11: operand-network sensitivity. DSRE's waves are extra
 * network traffic, so its advantage could erode on a slower
 * network; this sweep varies the per-hop latency of both networks
 * and reports IPC for store-sets+flush and DSRE plus the speedup.
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
    const std::vector<unsigned> hops = {1, 2, 3};
    const std::vector<std::string> kernels = {"gzipish", "bzip2ish",
                                              "vprish", "equakeish"};

    const std::vector<std::string> configs = {"storesets-flush",
                                              "dsre"};
    std::vector<RunSpec> specs;
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            for (unsigned h : hops) {
                RunSpec spec;
                spec.kernel = k;
                spec.config = c;
                spec.iterations = args.iterations;
                spec.tweak = [h](core::MachineConfig &cfg) {
                    cfg.core.hopLatency = h;
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
            for (unsigned h : hops)
                ipc[{k, c, h}] = rows[idx++].result.ipc();

    std::printf("Figure 11: IPC vs operand-network hop latency\n");
    std::vector<std::string> cols;
    for (unsigned h : hops)
        cols.push_back(strfmt("%u cyc/hop", h));
    for (const auto &k : kernels) {
        std::printf("\n[%s]\n", k.c_str());
        printHeader("mechanism", cols, 12);
        for (const auto &c : configs) {
            std::vector<std::string> cells;
            for (unsigned h : hops)
                cells.push_back(fmtF(ipc[{k, c, h}]));
            printRow(c, cells, 12);
        }
    }

    std::printf("\n[geomean DSRE speedup over store-sets+flush]\n");
    printHeader("", cols, 12);
    std::vector<std::string> cells;
    for (unsigned h : hops) {
        std::vector<double> ratios;
        for (const auto &k : kernels)
            ratios.push_back(ipc[{k, "dsre", h}] /
                             ipc[{k, "storesets-flush", h}]);
        cells.push_back(fmtF(geomean(ratios)));
    }
    printRow("speedup", cells, 12);
    return finishBench("bench_fig11_network", args, rows);
}
