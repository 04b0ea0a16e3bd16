/**
 * @file
 * Structured failure reporting for the simulator. A SimError is the
 * graceful-degradation counterpart of the old hard-abort paths: when
 * the deadlock watchdog fires, a protocol panic trips, or the runtime
 * invariant checker finds a violation, the run loop stops and the
 * report — reason, cycle, offending block, the last-N events from the
 * trace ring — surfaces in Processor::Result / sim::RunResult instead
 * of killing the process.
 */

#ifndef EDGE_CHAOS_SIM_ERROR_HH
#define EDGE_CHAOS_SIM_ERROR_HH

#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace edge::chaos {

struct SimError
{
    enum class Reason : std::uint8_t
    {
        None,               ///< the run ended normally
        Watchdog,           ///< no commit for watchdogCycles
        InvariantViolation, ///< the runtime invariant checker fired
        ProtocolPanic,      ///< a panic() in the timing machinery
        Livelock,           ///< activity repeats with no commit
        HostDeadline,       ///< per-run wall-clock deadline exceeded

        // --- supervised-campaign (process isolation) kinds ---------
        // Produced by the campaign supervisor (src/super/) when an
        // isolated worker cell dies instead of returning a result.
        WorkerCrash,    ///< child died on SIGSEGV/SIGABRT/SIGBUS/...
        WorkerKilled,   ///< child SIGKILLed (OOM killer / external)
        WorkerTimeout,  ///< supervisor deadline or RLIMIT_CPU kill
        WorkerProtocol, ///< child exited without a valid result
    };

    Reason reason = Reason::None;
    /** Named invariant that fired (see docs/PROTOCOL.md), if any. */
    std::string invariant;
    std::string message;
    Cycle cycle = 0;
    DynBlockSeq seq = 0;      ///< offending dynamic block, if known
    std::uint32_t node = 0;   ///< offending grid node / LSID, if known
    /** Last-N machine events (newest last) from the trace ring. */
    std::vector<std::string> trace;

    bool ok() const { return reason == Reason::None; }

    std::string format() const;
};

const char *reasonName(SimError::Reason reason);

/** Parse a reason name (fatal on unknown name). */
SimError::Reason reasonByName(const std::string &name);

/**
 * The documented process exit status for each failure kind (see
 * docs/PROTOCOL.md, "Failure triage"): 0 for a clean run, then one
 * distinct code per SimError::Reason so scripts and CI can branch on
 * WHY a run failed without parsing stderr. Codes 19 through 22 are
 * retired (they named failures of the removed multi-host campaign
 * fabric and campaign journal) and are never reused.
 */
int exitCodeFor(SimError::Reason reason);

/**
 * Host-level failures (wall-clock deadline, supervised-cell timeout)
 * are transient: the same cell may pass on a retry. Everything else —
 * watchdog, invariant violation, protocol panic, livelock, a worker
 * segfault — is a deterministic property of (program, config, seed)
 * and must never be retried in-session. (A SIGKILLed worker is not
 * retried either: it is reported as a failing cell.)
 */
bool isTransient(SimError::Reason reason);

/** An invariant-checker failure: carries the invariant's name. */
class InvariantFailure : public SimFailure
{
  public:
    InvariantFailure(std::string invariant, const std::string &msg,
                     Cycle cycle, DynBlockSeq seq)
        : SimFailure(msg, "invariant", 0),
          _invariant(std::move(invariant)),
          _cycle(cycle),
          _seq(seq)
    {
    }

    const std::string &invariant() const { return _invariant; }
    Cycle cycle() const { return _cycle; }
    DynBlockSeq seq() const { return _seq; }

  private:
    std::string _invariant;
    Cycle _cycle;
    DynBlockSeq _seq;
};

} // namespace edge::chaos

#endif // EDGE_CHAOS_SIM_ERROR_HH
