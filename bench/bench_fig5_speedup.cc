/**
 * @file
 * Figure 5 (headline result): performance of the recovery/policy
 * mechanisms across the workload suite, normalised to the
 * conservative (never-speculate) baseline, with the perfect oracle
 * as the upper bound.
 *
 * Paper claims reproduced here (abstract):
 *  - DSRE achieves an average 17% speedup over the best dependence
 *    predictor proposed to date (store sets with flush recovery);
 *  - DSRE reaches 82% of the performance of a perfect oracle
 *    directing the issue of loads.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace edge;
using namespace edge::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = benchArgs(argc, argv, 2000);
    const auto kernels = wl::kernelNames();
    const auto configs = sim::Configs::allNames();

    std::printf("Figure 5: speedup over the conservative baseline "
                "(8-frame / 1024-entry window)\n\n");

    std::vector<std::string> cols = {"IPC(cons)"};
    for (const auto &c : configs)
        if (c != "conservative")
            cols.push_back(c);
    printHeader("benchmark", cols);

    // The whole kernel x mechanism grid runs on the pool; rows come
    // back kernel-major in submission order.
    std::vector<RunRow> rows =
        runMatrix(kernels, configs, args.iterations, nullptr,
                  args.threads);

    std::map<std::string, std::vector<double>> speedups;
    std::vector<double> dsre_vs_ss, dsre_vs_oracle;

    std::size_t idx = 0;
    for (const auto &k : kernels) {
        std::map<std::string, double> ipc;
        for (const auto &c : configs)
            ipc[c] = rows[idx++].result.ipc();
        std::vector<std::string> cells = {fmtF(ipc["conservative"])};
        for (const auto &c : configs) {
            if (c == "conservative")
                continue;
            double s = ipc[c] / ipc["conservative"];
            speedups[c].push_back(s);
            cells.push_back(fmtF(s));
        }
        printRow(k, cells);
        dsre_vs_ss.push_back(ipc["dsre"] / ipc["storesets-flush"]);
        dsre_vs_oracle.push_back(ipc["dsre"] / ipc["oracle"]);
    }

    std::vector<std::string> gm_cells = {"-"};
    for (const auto &c : configs)
        if (c != "conservative")
            gm_cells.push_back(fmtF(geomean(speedups[c])));
    std::printf("\n");
    printRow("geomean", gm_cells);

    std::printf("\nHeadline comparisons (geomean across suite):\n");
    std::printf("  DSRE vs store-sets+flush : %+5.1f%%  "
                "(paper: +17%% average)\n",
                (geomean(dsre_vs_ss) - 1.0) * 100.0);
    std::printf("  DSRE as fraction of oracle: %5.1f%%  "
                "(paper: 82%%)\n",
                geomean(dsre_vs_oracle) * 100.0);
    return finishBench("bench_fig5_speedup", args, rows);
}
