/**
 * @file
 * JSON serialization of the simulator's run-facing structs —
 * MachineConfig, SimError, and the complete RunResult. Shared by
 * `.repro.json` capture (triage/repro) and the supervised-campaign
 * worker protocol (a child process returns its RunResult over a pipe
 * as one JSON document).
 *
 * The RunResult round-trip is *lossless*: every counter, histogram
 * bucket, chaos event and metric reconstructs bit-identically, so a
 * report assembled from deserialized worker results is byte-identical
 * to the same report assembled from in-process runs.
 *
 * Readers skip keys they do not know, so documents written by older
 * builds (with `wall_deadline_ms`, `retries` or `backoff_ms`) still
 * load.
 */

#ifndef EDGE_TRIAGE_RESULT_JSON_HH
#define EDGE_TRIAGE_RESULT_JSON_HH

#include <string>

#include "sim/simulator.hh"
#include "triage/jsonio.hh"

namespace edge::triage {

JsonValue configToJson(const core::MachineConfig &cfg);
void configFromJson(const JsonValue &o, core::MachineConfig *cfg);

JsonValue errorToJson(const chaos::SimError &e);
void errorFromJson(const JsonValue &o, chaos::SimError *e);

/** Serialize a complete RunResult (all metrics, counters,
 *  histograms, and the chaos-event schedule). */
JsonValue resultToJson(const sim::RunResult &r);

/** Rebuild a RunResult; false (with *err set) on a malformed
 *  document. */
bool resultFromJson(const JsonValue &o, sim::RunResult *r,
                    std::string *err);

} // namespace edge::triage

#endif // EDGE_TRIAGE_RESULT_JSON_HH
