#include "super/campaign.hh"

namespace edge::super {

sim::ChaosSweepReport
chaosSweepIsolated(const sim::ChaosSweepParams &params,
                   const triage::ProgramRef &program,
                   Supervisor &runner, bool *interrupted)
{
    std::vector<sim::SweepCell> grid = sim::sweepCells(params);

    std::vector<CellSpec> cells;
    cells.reserve(grid.size());
    for (const sim::SweepCell &gc : grid) {
        CellSpec cell;
        cell.program = program;
        cell.config = gc.machine;
        cell.maxCycles = params.maxCycles;
        cells.push_back(std::move(cell));
    }

    std::vector<std::optional<sim::RunResult>> outs =
        runner.runAll(cells);

    // Assemble through the same tally code as the in-process sweep.
    // On interruption the un-run cells are simply absent.
    std::vector<sim::ChaosSweepOutcome> runs;
    runs.reserve(outs.size());
    bool partial = false;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (!outs[i]) {
            partial = true;
            continue;
        }
        sim::ChaosSweepOutcome o;
        o.seed = grid[i].seed;
        o.config = grid[i].config;
        o.machine = grid[i].machine;
        o.result = std::move(*outs[i]);
        runs.push_back(std::move(o));
    }
    if (interrupted)
        *interrupted = partial;
    return sim::assembleSweepReport(std::move(runs));
}

std::function<std::vector<std::optional<sim::RunResult>>(
    const std::vector<sim::RunJob> &)>
fuzzBatchRunner(Supervisor &runner)
{
    return [&runner](const std::vector<sim::RunJob> &jobs) {
        std::vector<CellSpec> cells;
        cells.reserve(jobs.size());
        for (const sim::RunJob &job : jobs) {
            CellSpec cell;
            // The generator seed is the per-case rngSeed (see
            // fuzz::configFor), so the embedded ref labels the cell
            // the same way the corpus does.
            cell.program = triage::embeddedRef("fuzz", *job.program,
                                               job.config.rngSeed);
            cell.config = job.config;
            cell.maxCycles = job.maxCycles;
            cells.push_back(std::move(cell));
        }
        return runner.runAll(cells);
    };
}

} // namespace edge::super
