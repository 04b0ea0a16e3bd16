/**
 * @file
 * Figure 7: misspeculation behaviour by mechanism — dependence
 * violations per 1000 committed blocks, violation-induced flushes,
 * and loads held back by the active policy. Shows where each
 * mechanism sits on the speculate/serialise spectrum: blind
 * violates, store sets trades violations for holds, the oracle
 * holds exactly the true conflicts, and DSRE turns violations into
 * cheap resends.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace edge;
using namespace edge::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = benchArgs(argc, argv, 2000);
    const auto configs = sim::Configs::allNames();

    std::printf("Figure 7: violations / violation flushes / resends / "
                "policy holds, per 1000 committed blocks\n\n");

    struct Metric
    {
        const char *name;
        std::uint64_t (*get)(const sim::RunResult &);
    };
    const Metric metrics[] = {
        {"violations",
         [](const sim::RunResult &r) { return r.violations; }},
        {"violation flushes",
         [](const sim::RunResult &r) { return r.violFlushes; }},
        {"DSRE resends",
         [](const sim::RunResult &r) { return r.resends; }},
        {"policy holds",
         [](const sim::RunResult &r) { return r.policyHolds; }},
    };

    // One run per (kernel, config); reuse across the metric tables.
    std::vector<RunRow> rows = runMatrix(wl::kernelNames(), configs,
                                         args.iterations, nullptr,
                                         args.threads);

    for (const Metric &m : metrics) {
        std::printf("[%s]\n", m.name);
        std::vector<std::string> cols(configs.begin(), configs.end());
        printHeader("benchmark", cols, 12);
        std::size_t idx = 0;
        for (const auto &k : wl::kernelNames()) {
            std::vector<std::string> cells;
            for (std::size_t c = 0; c < configs.size(); ++c, ++idx) {
                const sim::RunResult &r = rows[idx].result;
                cells.push_back(fmtF(
                    1000.0 * static_cast<double>(m.get(r)) /
                        static_cast<double>(r.committedBlocks),
                    1));
            }
            printRow(k, cells, 12);
        }
        std::printf("\n");
    }
    return finishBench("bench_fig7_violations", args, rows);
}
