/**
 * @file
 * Extension experiment (beyond the paper's evaluation): the second
 * application of the DSRE protocol. The abstract frames DSRE as a
 * general selective re-execution mechanism and evaluates load/store
 * dependence speculation as "one application"; here we use the same
 * waves to speculate on load *values* — a long-latency miss replies
 * immediately with the last value seen at that address, and the real
 * value rides behind as a corrective (or confirming) wave.
 *
 * Reports IPC for plain DSRE vs DSRE+VP, the prediction accuracy,
 * and the correction traffic, per benchmark.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/logging.hh"

using namespace edge;
using namespace edge::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = benchArgs(argc, argv, 2000);

    std::printf("Extension: miss value prediction through the DSRE "
                "wave protocol\n\n");
    printHeader("benchmark",
                {"IPC dsre", "IPC +vp", "speedup", "preds/1k",
                 "vpAcc%"},
                11);

    // Rows come back kernel-major: [dsre, dsre-vp] per kernel, both
    // sharing the kernel's reference execution.
    std::vector<RunRow> rows =
        runMatrix(wl::kernelNames(), {"dsre", "dsre-vp"},
                  args.iterations, nullptr, args.threads);

    std::vector<double> ratios;
    std::size_t idx = 0;
    for (const auto &k : wl::kernelNames()) {
        const sim::RunResult &rb = rows[idx++].result;
        const sim::RunResult &rv = rows[idx++].result;
        double preds =
            static_cast<double>(rv.counter("lsq.vp_predictions"));
        double correct =
            static_cast<double>(rv.counter("lsq.vp_correct"));

        double ratio = rv.ipc() / rb.ipc();
        ratios.push_back(ratio);
        printRow(k,
                 {fmtF(rb.ipc()), fmtF(rv.ipc()), fmtF(ratio),
                  fmtF(1000.0 * preds /
                       static_cast<double>(rv.committedInsts), 1),
                  fmtF(preds ? 100.0 * correct / preds : 0.0, 1)},
                 11);
    }
    std::printf("\ngeomean speedup from value prediction: %.3f\n",
                geomean(ratios));
    std::printf("(Value prediction helps when misses are long and "
                "last-value locality is high; mispredictions cost a "
                "corrective wave — the same machinery as dependence "
                "misspeculation.)\n");
    return 0;
}
