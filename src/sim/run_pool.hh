/**
 * @file
 * Parallel execution of independent simulator runs. Every
 * (program, MachineConfig, max_cycles) cell of a sweep or bench grid
 * is an isolated deterministic computation: the run-level rngSeed in
 * the config fixes every stochastic decision, each job owns its own
 * Processor and StatSet, and the only shared state is the per-program
 * reference execution (RefExecutor + OracleDb), which RunPool
 * computes once per distinct program and then shares read-only.
 * Results come back in submission order, so a parallel grid is bit-
 * identical to the same grid run serially — `-j N` changes wall-clock
 * only, never output.
 */

#ifndef EDGE_SIM_RUN_POOL_HH
#define EDGE_SIM_RUN_POOL_HH

#include <vector>

#include "sim/simulator.hh"

namespace edge::sim {

/** One independent run: a program under one config. */
struct RunJob
{
    /**
     * Program to run (not owned; must outlive runAll). Jobs sharing
     * the same pointer share one reference execution.
     */
    const isa::Program *program = nullptr;
    core::MachineConfig config;
    Cycle maxCycles = 500'000'000;
};

class RunPool
{
  public:
    /** @param threads worker count; 0 means all hardware threads */
    explicit RunPool(unsigned threads = 0);

    unsigned threads() const { return _threads; }

    /**
     * Run every job, concurrently, and return results indexed like
     * `jobs`. Distinct programs get their reference executions
     * computed first (also in parallel, one job per program); then
     * every cell runs as its own pool job. Run failures (watchdog,
     * invariant violation, protocol panic, divergence) are per-cell
     * data in RunResult — one bad cell never aborts the grid. Each
     * cell runs exactly once: a run is a pure function of (program,
     * config, seed), so a rerun could only repeat the same bits.
     */
    std::vector<RunResult> runAll(const std::vector<RunJob> &jobs);

    /**
     * Run many configs of one already-constructed Simulator without
     * rebuilding its reference execution (prepares it on first use).
     * The triage minimizer leans on this: each delta-debugging round
     * is a batch of masked-schedule candidate runs over one program.
     */
    std::vector<RunResult>
    runConfigs(Simulator &sim,
               const std::vector<core::MachineConfig> &configs,
               Cycle max_cycles = 500'000'000);

  private:
    unsigned _threads;
};

} // namespace edge::sim

#endif // EDGE_SIM_RUN_POOL_HH
