#include "sim/sweep.hh"

#include "common/strutil.hh"
#include "sim/run_pool.hh"

namespace edge::sim {

std::string
ChaosSweepReport::summary() const
{
    std::string out = strfmt(
        "%zu/%zu runs converged, %llu injections, %llu checks\n",
        runs.size() - failures, runs.size(),
        static_cast<unsigned long long>(totalInjections),
        static_cast<unsigned long long>(totalChecks));
    for (const ChaosSweepOutcome &o : runs) {
        if (o.converged())
            continue;
        out += strfmt(
            "  FAIL seed=%llu config=%s halted=%d archMatch=%d\n",
            static_cast<unsigned long long>(o.seed), o.config.c_str(),
            o.result.halted, o.result.archMatch);
        if (!o.result.error.ok())
            out += "    " + o.result.error.format() + "\n";
        if (!o.reproPath.empty())
            out += strfmt("    to reproduce: edgesim --replay %s\n",
                          o.reproPath.c_str());
    }
    return out;
}

std::vector<SweepCell>
sweepCells(const ChaosSweepParams &params)
{
    std::vector<SweepCell> cells;
    cells.reserve(params.configs.size() * params.seeds.size());
    for (const std::string &name : params.configs) {
        core::MachineConfig base = Configs::byName(name);
        for (std::uint64_t seed : params.seeds) {
            SweepCell cell;
            cell.seed = seed;
            cell.config = name;
            cell.machine = base;
            cell.machine.rngSeed = seed;
            cell.machine.chaos =
                chaos::ChaosParams::byProfile(params.profile, seed);
            cell.machine.chaos.mutation = params.mutation;
            cell.machine.chaos.mutationNode = params.mutationNode;
            cell.machine.checkInvariants = params.checkInvariants;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

ChaosSweepReport
assembleSweepReport(std::vector<ChaosSweepOutcome> runs)
{
    ChaosSweepReport report;
    report.runs = std::move(runs);
    for (const ChaosSweepOutcome &o : report.runs) {
        report.totalInjections += o.result.injections.total();
        report.totalChecks += o.result.invariantChecks;
        if (!o.converged())
            ++report.failures;
    }
    return report;
}

ChaosSweepReport
chaosSweep(const isa::Program &program, const ChaosSweepParams &params)
{
    // Build the whole grid up front, then run it on the pool. All
    // cells share one read-only reference execution of `program`;
    // results come back in submission order, so the report is
    // bit-identical at any thread count.
    std::vector<SweepCell> cells = sweepCells(params);
    std::vector<RunJob> jobs;
    jobs.reserve(cells.size());
    for (const SweepCell &cell : cells) {
        RunJob job;
        job.program = &program;
        job.config = cell.machine;
        job.maxCycles = params.maxCycles;
        jobs.push_back(std::move(job));
    }

    RunPool pool(params.threads);
    std::vector<RunResult> results = pool.runAll(jobs);

    std::vector<ChaosSweepOutcome> runs;
    runs.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ChaosSweepOutcome o;
        o.seed = cells[i].seed;
        o.config = cells[i].config;
        o.machine = std::move(cells[i].machine);
        o.result = std::move(results[i]);
        runs.push_back(std::move(o));
    }
    return assembleSweepReport(std::move(runs));
}

} // namespace edge::sim
