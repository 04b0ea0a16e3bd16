/**
 * @file
 * The campaign supervisor: runs each cell of a grid in a child
 * process so that a segfault, OOM kill, or runaway loop in one cell
 * becomes a structured failure row instead of taking the whole
 * campaign down. The child is a fork/exec of the running binary
 * (/proc/self/exe) re-entered as `--worker-cell`, with a
 * supervisor-side wall-clock deadline enforced by SIGKILL; the spec
 * goes down the child's stdin and the complete RunResult comes back
 * up its stdout as one JSON document (losslessly — a supervised grid
 * report is byte-identical to the in-process one).
 *
 * Child deaths are classified from the wait status into the
 * SimError::Reason::Worker* kinds. SIGINT/SIGTERM (see
 * installStopHandlers) stop the loop at the next poll tick: in-flight
 * children are killed and reaped, and the caller prints the partial
 * tally.
 */

#ifndef EDGE_SUPER_SUPERVISOR_HH
#define EDGE_SUPER_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/run_pool.hh"
#include "super/cell.hh"

namespace edge::super {

struct SupervisorOptions
{
    /** Concurrent worker processes (0 = all hardware threads). */
    unsigned jobs = 0;
    /** Per-cell wall-clock deadline; the child is SIGKILLed past it
     *  and the cell reports WorkerTimeout. 0 = no deadline. */
    std::uint64_t cellTimeoutMs = 0;
    /** Retry policy for transient (timeout) failures. Deterministic
     *  worker deaths are never retried in-session. */
    sim::RetryPolicy retry;
};

class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opts);

    /**
     * Run every cell in child processes, at most `jobs` concurrently.
     * Results come back indexed like `cells` regardless of
     * completion order, so supervised grids preserve the in-process
     * report ordering guarantee; a cell the campaign stopped before
     * running is nullopt. May be called repeatedly (the fuzz driver
     * feeds batches); the tallies accumulate across calls.
     */
    std::vector<std::optional<sim::RunResult>>
    runAll(const std::vector<CellSpec> &cells);

    /** Cooperative stop (what the signal handlers trigger): kill and
     *  reap children, return with the un-run cells nullopt. */
    void
    requestStop()
    {
        _stop.store(true, std::memory_order_relaxed);
    }
    bool stopRequested() const;

    // --- campaign tallies (across all runAll calls) ---------------------
    std::size_t completed() const { return _completed; }
    std::size_t failures() const { return _failures; }

  private:
    struct Child;

    bool spawn(Child &child, const CellSpec &cell);
    void finalize(std::optional<sim::RunResult> &out,
                  sim::RunResult result);

    SupervisorOptions _opts;
    std::atomic<bool> _stop{false};
    std::size_t _completed = 0;
    std::size_t _failures = 0;
};

/**
 * Install SIGINT/SIGTERM handlers that flip a process-global stop
 * flag every Supervisor polls (async-signal-safe: the handler only
 * stores to a sig_atomic_t). Returns immediately if already
 * installed.
 */
void installStopHandlers();

/** The signal that triggered the global stop, or 0. */
int stopSignal();

/** Test hook: clear the global stop flag. */
void clearStopSignal();

} // namespace edge::super

#endif // EDGE_SUPER_SUPERVISOR_HH
