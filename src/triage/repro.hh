/**
 * @file
 * Deterministic failure-repro capture and replay. A `.repro.json`
 * file is a self-contained description of one failing run — program
 * identity (kernel name + generator params + a content hash), the
 * full resolved MachineConfig including the effective chaos seed and
 * any schedule filter, the cycle budget, and the observed failure
 * signature with the trace-ring tail. Because every run is a pure
 * function of (program, config, budget), `edgesim --replay file`
 * reproduces the failure bit-identically: same SimError kind, same
 * invariant rule, same failure cycle — regardless of the thread count
 * or host the original grid ran at.
 */

#ifndef EDGE_TRIAGE_REPRO_HH
#define EDGE_TRIAGE_REPRO_HH

#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "triage/jsonio.hh"
#include "workloads/workloads.hh"

namespace edge::triage {

/**
 * How to rebuild the failing program. Two flavours: a workload-suite
 * kernel identified by (kernel, params) and rebuilt via wl::build on
 * replay, or — for fuzz-generated and minimized programs, which have
 * no kernel to call back into — the program itself, embedded in the
 * repro file (see triage/program_json.hh).
 */
struct ProgramRef
{
    std::string kernel;             ///< wl::build name, or "fuzz"
    wl::KernelParams params;        ///< generator iterations + seed
    /** When set, `embedded` IS the program; `kernel` is just a label
     *  (and `params.seed` records the fuzz generator seed). */
    bool hasEmbedded = false;
    isa::Program embedded;
};

/** A ProgramRef carrying the program itself. */
ProgramRef embeddedRef(std::string label, isa::Program program,
                       std::uint64_t generator_seed = 0);

/** Everything needed to replay one failing run. */
struct ReproSpec
{
    ProgramRef program;
    /**
     * Content hash of the built program (code + initial registers +
     * memory image). Replay recomputes it and refuses to compare
     * signatures across a changed program.
     */
    std::uint64_t programHash = 0;
    /**
     * The exact resolved machine configuration of the failing run.
     * The effective chaos seed is baked in at capture time (a config
     * with chaos.seed == 0 derives it from rngSeed at run time).
     */
    core::MachineConfig config;
    Cycle maxCycles = 500'000'000;
    /**
     * Provenance line of the build that captured this spec (see
     * edge::buildInfoLine). Replay compares it against the running
     * binary and warns on mismatch: a capture from a different git
     * revision, build type, or sanitizer mix may legitimately not
     * reproduce.
     */
    std::string build;

    // --- observed failure signature -----------------------------------
    chaos::SimError error;
    bool halted = false;
    bool archMatch = false;
    /** The failing run's full fault-event schedule (the minimizer's
     *  starting universe); may be truncated for pathological runs. */
    std::vector<chaos::FaultEvent> schedule;
};

/** 64-bit content hash of a program (code, registers, memory image). */
std::uint64_t programHash(const isa::Program &program);

/** Rebuild the program a spec refers to (fatal on unknown kernel). */
isa::Program buildProgram(const ProgramRef &ref);

JsonValue toJson(const ReproSpec &spec);

/** Parse a spec; false (with *err set) on malformed/missing fields. */
bool fromJson(const JsonValue &root, ReproSpec *spec,
              std::string *err);

/** Write `spec` to `path`; false (with *err set) on I/O failure. */
bool save(const ReproSpec &spec, const std::string &path,
          std::string *err);

/** Load a `.repro.json`; false (with *err set) on any failure. */
bool load(const std::string &path, ReproSpec *spec, std::string *err);

/**
 * Build the capture for one failing run. `config` must be the exact
 * config the run used; the effective chaos seed from `result` is
 * baked in so the spec replays standalone.
 */
ReproSpec captureFromResult(const ProgramRef &program,
                            const core::MachineConfig &config,
                            Cycle max_cycles,
                            const sim::RunResult &result);

/**
 * Save a spec under `dir` (created if missing) with a deterministic
 * name derived from the run's identity. Returns the file path, or ""
 * on I/O failure.
 */
std::string captureToFile(const ReproSpec &spec,
                          const std::string &dir);

/**
 * Capture a repro file for every non-converged cell of a sweep
 * report, filling each outcome's `reproPath`. Returns the number of
 * files written.
 */
std::size_t captureSweepFailures(sim::ChaosSweepReport &report,
                                 const ProgramRef &program,
                                 Cycle max_cycles,
                                 const std::string &dir);

/** Re-run the spec's exact configuration (the replay semantics). */
sim::RunResult replay(const ReproSpec &spec);

/**
 * Bit-identity signature check for replay: same failure kind, same
 * invariant rule, same failure cycle, same halted/archMatch verdict.
 */
bool sameSignature(const ReproSpec &spec, const sim::RunResult &result);

/**
 * The weaker predicate the minimizer preserves: same SimError kind
 * and invariant rule. (Masking schedule events legitimately moves
 * the failure cycle.)
 */
bool sameFailureKind(const ReproSpec &spec,
                     const sim::RunResult &result);

/** One-line human summary of a spec's failure signature. */
std::string signatureLine(const ReproSpec &spec);

} // namespace edge::triage

#endif // EDGE_TRIAGE_REPRO_HH
