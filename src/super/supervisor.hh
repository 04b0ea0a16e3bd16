/**
 * @file
 * The campaign supervisor: runs each cell of a grid in a sandboxed
 * child process so that a segfault, OOM kill, or runaway loop in one
 * cell becomes a structured, journaled, replayable failure row
 * instead of taking the whole campaign down. The child is a fork/exec
 * of `edgesim --worker-cell` (by default the running binary itself,
 * via /proc/self/exe) with RLIMIT_AS / RLIMIT_CPU applied and a
 * supervisor-side wall-clock deadline enforced by SIGKILL; the spec
 * goes down the child's stdin and the complete RunResult comes back
 * up its stdout as one JSON document (losslessly — a supervised grid
 * report is byte-identical to the in-process one).
 *
 * Child deaths are classified from the wait status into the
 * SimError::Reason::Worker* kinds; every completed cell is appended
 * to the JSONL campaign journal, which is synced once per poll-loop
 * wake that reaped a cell and again before runAll returns; `resume`
 * replays final records and selectively re-executes the rest.
 * SIGINT/SIGTERM (see installStopHandlers) stop the loop at the next
 * poll tick: children are reaped, the journal is synced, and the
 * caller prints the partial tally plus a one-line resume hint.
 */

#ifndef EDGE_SUPER_SUPERVISOR_HH
#define EDGE_SUPER_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/run_pool.hh"
#include "super/cell.hh"
#include "super/journal.hh"

namespace edge::super {

/** What one supervised cell produced. */
struct CellOutcome
{
    sim::RunResult result;
    /** False only when the campaign stopped before this cell ran —
     *  such cells have no journal record and no meaningful result. */
    bool ran = false;
    /** True when `result` was replayed from the resume journal. */
    bool fromJournal = false;
    /** Automatic crash capture, when one was written. */
    std::string reproPath;
};

struct SupervisorOptions
{
    /** Concurrent worker processes (0 = all hardware threads). */
    unsigned jobs = 0;
    /** Per-cell wall-clock deadline; the child is SIGKILLed past it
     *  and the cell reports WorkerTimeout. 0 = no deadline. */
    std::uint64_t cellTimeoutMs = 0;
    /** RLIMIT_AS for each child, in MiB (0 = unlimited). */
    std::uint64_t rlimitAsMb = 0;
    /** RLIMIT_CPU for each child, in seconds (0 = unlimited). */
    std::uint64_t rlimitCpuSec = 0;
    /** Worker image to exec; "" = /proc/self/exe (the running
     *  binary re-entered with --worker-cell). */
    std::string workerPath;
    /** Journal file; "" disables journaling (and resume). */
    std::string journalPath;
    /** Replay final records already in the journal instead of
     *  re-running their cells. */
    bool resume = false;
    /** Directory for automatic .repro.json capture of worker-death
     *  cells; "" disables capture. */
    std::string reproDir;
    /** Retry policy for transient (timeout) failures. Deterministic
     *  worker deaths are never retried in-session. */
    sim::RetryPolicy retry;
};

class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opts);

    /**
     * Run every cell (subject to the resume journal), in child
     * processes, at most `jobs` concurrently. Outcomes come back
     * indexed like `cells` regardless of completion order, so
     * supervised grids preserve the in-process report ordering
     * guarantee. May be called repeatedly (the fuzz driver feeds
     * batches); the journal stays open across calls.
     */
    std::vector<CellOutcome>
    runAll(const std::vector<CellSpec> &cells);

    /** Cooperative stop (what the signal handlers trigger): kill and
     *  reap children, return with the un-run cells marked !ran. */
    void
    requestStop()
    {
        _stop.store(true, std::memory_order_relaxed);
    }
    bool stopRequested() const;

    // --- campaign tallies (across all runAll calls) ---------------------
    std::size_t completed() const { return _completed; }
    std::size_t skipped() const { return _skipped; } ///< replayed
    std::size_t failures() const { return _failures; }

    /** One-line `--resume` hint for interrupted-campaign banners
     *  ("" when the campaign has no journal). */
    std::string resumeHint() const;

  private:
    struct Child;

    bool spawn(Child &child, const CellSpec &cell);
    void finalize(std::size_t index, const CellSpec &cell,
                  sim::RunResult result, std::vector<CellOutcome> &out);
    /** fdatasync the journal if a record was appended since the last
     *  sync. */
    void syncJournal();

    SupervisorOptions _opts;
    Journal _journal;
    bool _unsynced = false; ///< appended since the last journal sync
    std::atomic<bool> _stop{false};
    std::size_t _completed = 0;
    std::size_t _skipped = 0;
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
