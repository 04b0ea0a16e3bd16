/**
 * @file
 * Supervised-campaign entry points: the process-isolated twins of
 * sim::chaosSweep and the fuzz driver's batch executor. Both reuse
 * the in-process drivers' own grid construction and report assembly
 * (sim::sweepCells / sim::assembleSweepReport, and the whole of
 * fuzz::runCampaign via FuzzOptions::batchRunner), so an `--isolate`
 * campaign differs from the default only in WHERE each cell runs —
 * the uninterrupted report is byte-identical by construction.
 */

#ifndef EDGE_SUPER_CAMPAIGN_HH
#define EDGE_SUPER_CAMPAIGN_HH

#include "fuzz/diff.hh"
#include "sim/sweep.hh"
#include "super/supervisor.hh"

namespace edge::super {

/**
 * The process-isolated chaosSweep: same grid, same report, each cell
 * in a sandboxed worker. `program` names/carries the program for the
 * workers (a kernel ref for workload sweeps). When the campaign is
 * interrupted, the report covers only the cells that completed (the
 * journal has them all) and *interrupted is set.
 */
sim::ChaosSweepReport
chaosSweepIsolated(const sim::ChaosSweepParams &params,
                   const triage::ProgramRef &program,
                   Supervisor &runner, bool *interrupted = nullptr);

/**
 * Batch executor for fuzz::FuzzOptions::batchRunner: every RunJob
 * becomes a CellSpec with the fuzz program embedded, run under
 * `runner`, which must outlive the campaign.
 */
std::function<std::vector<std::optional<sim::RunResult>>(
    const std::vector<sim::RunJob> &)>
fuzzBatchRunner(Supervisor &runner);

} // namespace edge::super

#endif // EDGE_SUPER_CAMPAIGN_HH
