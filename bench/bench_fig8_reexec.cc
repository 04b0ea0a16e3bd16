/**
 * @file
 * Figure 8: the cost side of DSRE — how much work selective
 * re-execution actually re-executes. Per benchmark: the fraction of
 * ALU issues that are re-fires, corrective resends and commit-wave
 * upgrades per 1000 committed instructions, value-identity squash
 * counts, storm-throttle deferrals, and the distribution of
 * re-execution wave depths (how far a corrective wave travels
 * through the dataflow graph before dying out).
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

    std::printf("Figure 8: DSRE re-execution overhead (dsre config)\n\n");
    printHeader("benchmark",
                {"reexec%", "resend/1k", "upgr/1k", "squash/1k",
                 "defer/1k", "waveP50", "waveP90", "waveMax"},
                10);

    std::vector<RunRow> rows = runMatrix(wl::kernelNames(), {"dsre"},
                                         args.iterations, nullptr,
                                         args.threads);

    std::size_t idx = 0;
    for (const auto &k : wl::kernelNames()) {
        const sim::RunResult &r = rows[idx++].result;
        const Histogram &wave = r.histogram("core.wave_depth");
        double per_1k_insts =
            1000.0 / static_cast<double>(r.committedInsts);
        printRow(k,
                 {fmtF(r.reexecFraction() * 100.0),
                  fmtF(static_cast<double>(r.resends) * per_1k_insts, 1),
                  fmtF(static_cast<double>(r.upgrades) * per_1k_insts,
                       1),
                  fmtF(static_cast<double>(r.squashes) * per_1k_insts,
                       1),
                  fmtF(static_cast<double>(r.deferrals) * per_1k_insts,
                       1),
                  fmtU(wave.approxPercentile(0.5)),
                  fmtU(wave.approxPercentile(0.9)),
                  fmtU(wave.maxValue())},
                 10);
    }
    return finishBench("bench_fig8_reexec", args, rows);
}
