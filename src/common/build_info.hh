/**
 * @file
 * Build provenance, stamped at configure time. Repro files and
 * `edgesim --version` carry this record so a capture replayed
 * on a *different* build (other git revision, build type, or
 * sanitizer mix) is detected and warned about instead of silently
 * producing a non-reproducing replay.
 */

#ifndef EDGE_COMMON_BUILD_INFO_HH
#define EDGE_COMMON_BUILD_INFO_HH

#include <string>

namespace edge {

struct BuildInfo
{
    /** `git rev-parse HEAD` at configure time ("unknown" outside a
     *  checkout); a `-dirty` suffix marks uncommitted changes. */
    std::string gitHash;
    std::string buildType;  ///< CMAKE_BUILD_TYPE
    std::string sanitizer;  ///< EDGE_SANITIZE value (e.g. "OFF")
    bool mutations = false; ///< EDGE_MUTATIONS hooks compiled in
};

/** The provenance of the running binary. */
const BuildInfo &buildInfo();

/** One-line form: "git=<hash> build=<type> sanitize=<s> mutations=<b>". */
std::string buildInfoLine();

/**
 * Compare a recorded provenance line against the running binary's;
 * returns "" when they match, else a human-readable description of
 * the mismatch for the replay-time warning.
 */
std::string buildMismatch(const std::string &recorded_line);

} // namespace edge

#endif // EDGE_COMMON_BUILD_INFO_HH
