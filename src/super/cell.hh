/**
 * @file
 * The unit of supervised execution: one (program, config, budget)
 * cell, serializable as the worker-protocol request. A supervisor
 * sends a CellSpec as one JSON document on the child's stdin; the
 * child runs it and answers with a triage::resultToJson document on
 * stdout.
 */

#ifndef EDGE_SUPER_CELL_HH
#define EDGE_SUPER_CELL_HH

#include <string>

#include "triage/repro.hh"

namespace edge::super {

/** One supervised run: a program under one resolved config. */
struct CellSpec
{
    /** Program identity — a workload kernel by name, or an embedded
     *  fuzz program (see triage::ProgramRef). */
    triage::ProgramRef program;
    /** Fully-resolved config; the run seed lives in config.rngSeed. */
    core::MachineConfig config;
    Cycle maxCycles = 500'000'000;
    /**
     * Test-only crash hook. When nonempty the worker misbehaves on
     * purpose instead of running the cell: "segv" dereferences null,
     * "abort" raises SIGABRT, "kill" raises SIGKILL, "hang" sleeps
     * forever, "exit3" exits with status 3, "garbage" prints a
     * non-JSON line and exits 0. This is how the signal-classification
     * tests produce real dead children without shipping a genuinely
     * crashy workload.
     */
    std::string testCrash;
};

/** Serialize a cell as the worker-protocol request document. */
triage::JsonValue cellToJson(const CellSpec &cell);

/** Parse a request; false (with *err set) on malformed input. */
bool cellFromJson(const triage::JsonValue &root, CellSpec *cell,
                  std::string *err);

} // namespace edge::super

#endif // EDGE_SUPER_CELL_HH
