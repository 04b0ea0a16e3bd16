/**
 * @file
 * Host provenance for benchmark artifacts. Wall-clock measurements
 * taken on different machines are not directly comparable, so the
 * bench `--json` files and perfbench stamp the CPU model, core count
 * and build type next to every timing.
 */

#ifndef EDGE_COMMON_HOSTINFO_HH
#define EDGE_COMMON_HOSTINFO_HH

#include <string>

namespace edge {

struct HostInfo
{
    std::string cpuModel; ///< "model name" from /proc/cpuinfo
    unsigned cores = 0;   ///< hardware_concurrency
    std::string buildType;  ///< CMAKE_BUILD_TYPE of this binary
    std::string sanitizer;  ///< EDGE_SANITIZE of this binary
};

/** The running host's provenance (cached after the first call). */
const HostInfo &hostInfo();

} // namespace edge

#endif // EDGE_COMMON_HOSTINFO_HH
