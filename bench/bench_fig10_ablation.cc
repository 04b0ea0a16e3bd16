/**
 * @file
 * Figure 10: ablation of the DSRE design choices DESIGN.md calls
 * out. Each row disables or re-prices one mechanism and reports the
 * geomean IPC across the aliasing-heavy kernels, normalised to the
 * default DSRE machine:
 *
 *  - value-identity squash off (every re-fire re-sends);
 *  - commit wave through the ALUs (no dedicated commit ports);
 *  - commit-wave replies charged full LSQ bank ports;
 *  - resend budget 1 / 16 / unlimited (storm throttle off);
 *  - 1 vs 4 commit ports per node.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace edge;
using namespace edge::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = benchArgs(argc, argv, 1500);
    const std::vector<std::string> kernels = {
        "gzipish", "bzip2ish", "parserish", "twolfish", "vprish",
        "ammpish"};

    struct Variant
    {
        const char *name;
        ConfigTweak tweak;
    };
    const std::vector<Variant> variants = {
        {"default DSRE", nullptr},
        {"no value squash",
         [](core::MachineConfig &c) {
             c.core.squashIdenticalValues = false;
         }},
        {"commit on ALU",
         [](core::MachineConfig &c) { c.core.commitWaveUsesAlu = true; }},
        {"upgr take port",
         [](core::MachineConfig &c) {
             c.lsq.chargeUpgradePorts = true;
         }},
        {"budget 1",
         [](core::MachineConfig &c) { c.lsq.maxResendsPerLoad = 1; }},
        {"budget 16",
         [](core::MachineConfig &c) { c.lsq.maxResendsPerLoad = 16; }},
        {"budget 64",
         [](core::MachineConfig &c) { c.lsq.maxResendsPerLoad = 64; }},
        {"1 commit port",
         [](core::MachineConfig &c) { c.core.commitPortsPerNode = 1; }},
        {"4 commit ports",
         [](core::MachineConfig &c) { c.core.commitPortsPerNode = 4; }},
    };

    std::printf("Figure 10: DSRE design-choice ablations "
                "(geomean IPC over %zu kernels, normalised to "
                "default DSRE)\n\n",
                kernels.size());
    printHeader("variant", {"relIPC", "resend/1k", "upgr/1k"}, 12);

    std::vector<RunSpec> specs;
    for (const Variant &v : variants) {
        for (const auto &k : kernels) {
            RunSpec spec;
            spec.kernel = k;
            spec.config = "dsre";
            spec.iterations = args.iterations;
            spec.tweak = v.tweak;
            specs.push_back(std::move(spec));
        }
    }
    std::vector<RunRow> rows = runSpecs(specs, args.threads);

    double base_ipc = 0.0;
    std::size_t idx = 0;
    for (const Variant &v : variants) {
        std::vector<double> ipcs;
        std::uint64_t resends = 0, upgrades = 0, insts = 0;
        for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
            const RunRow &row = rows[idx++];
            ipcs.push_back(row.result.ipc());
            resends += row.result.resends;
            upgrades += row.result.upgrades;
            insts += row.result.committedInsts;
        }
        double gm = geomean(ipcs);
        if (base_ipc == 0.0)
            base_ipc = gm;
        printRow(v.name,
                 {fmtF(gm / base_ipc, 3),
                  fmtF(1000.0 * static_cast<double>(resends) /
                       static_cast<double>(insts), 2),
                  fmtF(1000.0 * static_cast<double>(upgrades) /
                       static_cast<double>(insts), 2)},
                 12);
    }
    return finishBench("bench_fig10_ablation", args, rows);
}
