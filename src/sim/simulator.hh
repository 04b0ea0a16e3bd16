/**
 * @file
 * The top-level user-facing API. A Simulator takes a validated EDGE
 * program and a MachineConfig, runs the functional reference
 * execution (which doubles as the oracle database and golden model),
 * then runs the timing simulation and verifies that the committed
 * architectural state matches the reference bit for bit.
 *
 * Typical use:
 * @code
 *   isa::Program prog = wl::buildKernel("gzipish", {});
 *   sim::Simulator s(prog, sim::Configs::dsre());
 *   sim::RunResult r = s.run();
 *   printf("IPC %.2f\n", r.ipc());
 * @endcode
 */

#ifndef EDGE_SIM_SIMULATOR_HH
#define EDGE_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <utility>

#include "core/processor.hh"

namespace edge::sim {

/** Outcome of one timing run, plus the paper-relevant metrics. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t committedBlocks = 0;
    std::uint64_t committedInsts = 0;
    bool halted = false;    ///< program ran to completion
    bool archMatch = false; ///< registers + memory match the reference

    /** Structured failure report (ok() when the run was clean). */
    chaos::SimError error;
    /** The run-level seed the run used (replay handle). */
    std::uint64_t rngSeed = 0;
    /** The chaos seed actually used (0 when chaos was off). */
    std::uint64_t chaosSeed = 0;
    /** What the chaos engine injected (all zero when off). */
    chaos::InjectionCounts injections;
    /**
     * The run's candidate fault schedule, in injection order,
     * including events a schedule filter suppressed (empty when chaos
     * is off). This is the universe triage::minimizeSchedule
     * delta-debugs over.
     */
    std::vector<chaos::FaultEvent> chaosEvents;
    /** Individual invariant checks evaluated (0 when off). */
    std::uint64_t invariantChecks = 0;
    /**
     * Snapshot of every counter of the run's StatSet, sorted by
     * name. Lets parallel runs (sim::RunPool), whose per-run StatSet
     * dies with the job, still report arbitrary counters — and lets
     * tests compare two runs bit for bit.
     */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /** Value of a snapshotted counter; 0 when absent. */
    std::uint64_t
    counter(const std::string &name) const
    {
        for (const auto &kv : counters)
            if (kv.first == name)
                return kv.second;
        return 0;
    }

    /** Histogram snapshots (sorted by name), same rationale. */
    std::vector<std::pair<std::string, Histogram>> histograms;

    /** Snapshotted histogram; an empty one when absent. */
    const Histogram &
    histogram(const std::string &name) const
    {
        static const Histogram kEmpty;
        for (const auto &kv : histograms)
            if (kv.first == name)
                return kv.second;
        return kEmpty;
    }

    std::uint64_t violations = 0;
    std::uint64_t resends = 0;
    std::uint64_t reexecs = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t ctrlFlushes = 0;
    std::uint64_t violFlushes = 0;
    std::uint64_t aluIssues = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t forwards = 0;
    std::uint64_t policyHolds = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t squashes = 0;

    double
    ipc() const
    {
        return cycles == 0
                   ? 0.0
                   : static_cast<double>(committedInsts) /
                         static_cast<double>(cycles);
    }

    /** Fraction of ALU work that is DSRE re-execution. */
    double
    reexecFraction() const
    {
        return aluIssues == 0
                   ? 0.0
                   : static_cast<double>(reexecs) /
                         static_cast<double>(aluIssues);
    }
};

/** Canned machine configurations matching the paper's mechanisms. */
struct Configs
{
    /** Conservative loads, no speculation: the safe baseline. */
    static core::MachineConfig conservative();
    /** Blind speculation with flush recovery. */
    static core::MachineConfig blindFlush();
    /** Store-set prediction with flush recovery (best predictor). */
    static core::MachineConfig storeSetsFlush();
    /** Blind speculation with DSRE recovery (the paper's proposal). */
    static core::MachineConfig dsre();
    /** Store-set prediction with DSRE recovery (an extension). */
    static core::MachineConfig storeSetsDsre();
    /** Perfect oracle load issue (upper bound). */
    static core::MachineConfig oracle();
    /**
     * DSRE plus miss value prediction — the second application of
     * the protocol (extension beyond the paper's evaluation).
     */
    static core::MachineConfig dsreVp();

    /** The config named by one of {conservative, blind-flush,
     * storesets-flush, dsre, storesets-dsre, oracle}. */
    static core::MachineConfig byName(const std::string &name);

    /** All mechanism names in presentation order. */
    static const std::vector<std::string> &allNames();
};

class Simulator
{
  public:
    /**
     * @param program the program to run (copied)
     * @param config machine configuration
     * @param ref_max_blocks budget for the reference pre-execution
     */
    Simulator(isa::Program program, core::MachineConfig config,
              std::uint64_t ref_max_blocks = 50'000'000);

    /**
     * Run the timing simulation (reference runs lazily first).
     * @param max_cycles timing-simulation cycle budget
     */
    RunResult run(Cycle max_cycles = 500'000'000);

    /**
     * Run with a different machine configuration, reusing the cached
     * reference execution — the cheap path for seed/config sweeps
     * over one program.
     */
    RunResult run(const core::MachineConfig &config,
                  Cycle max_cycles = 500'000'000);

    /**
     * Force the reference execution (and oracle database) now.
     * After prepare() returns, this Simulator is safe to share
     * read-only across threads via runShared(): the reference state
     * is immutable for the rest of the object's lifetime.
     */
    void prepare() { ensureReference(); }

    /**
     * Thread-safe run: requires prepare() to have been called. The
     * job owns its own Processor and StatSet, touches no Simulator
     * member except the immutable program/reference/oracle state,
     * and is bit-identical to run() for the same config — results
     * depend only on the config's seeds, never on the thread
     * schedule. The run's counters are snapshotted into
     * RunResult::counters (stats() is NOT updated).
     */
    RunResult runShared(const core::MachineConfig &config,
                        Cycle max_cycles = 500'000'000) const;

    /** Reference (functional) dynamic instruction count. */
    std::uint64_t refDynInsts();

    /** Reference dynamic block count. */
    std::uint64_t refDynBlocks();

    /** The oracle / golden database (reference runs lazily first). */
    const pred::OracleDb &oracleDb();

    /** Statistics of the last timing run. */
    const StatSet &stats() const { return *_stats; }

    const isa::Program &program() const { return _prog; }

  private:
    void ensureReference();
    RunResult runWith(const core::MachineConfig &config,
                      Cycle max_cycles, StatSet &stats) const;

    isa::Program _prog;
    core::MachineConfig _cfg;
    std::uint64_t _refMaxBlocks;

    bool _refDone = false;
    std::uint64_t _refBlocks = 0;
    std::uint64_t _refInsts = 0;
    std::unique_ptr<compiler::RefExecutor> _ref;
    std::unique_ptr<pred::OracleDb> _oracleDb;
    /**
     * Shared program image: validation + placement computed once and
     * reused by every Processor this simulator constructs (including
     * concurrent runShared() jobs — the image is thread-safe).
     * Built by ensureReference(), immutable afterwards.
     */
    std::unique_ptr<core::ProgramImage> _image;
    std::unique_ptr<StatSet> _stats;
};

} // namespace edge::sim

#endif // EDGE_SIM_SIMULATOR_HH
