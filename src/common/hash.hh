/**
 * @file
 * FNV-1a 64-bit, the content hash behind triage::programHash: the
 * program identity a repro file records so a replay can tell it is
 * running the program that failed.
 */

#ifndef EDGE_COMMON_HASH_HH
#define EDGE_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace edge {

/** Incremental FNV-1a 64-bit hasher (classic offset basis / prime). */
struct Fnv1a
{
    std::uint64_t state = 0xcbf29ce484222325ULL;

    void
    mix(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ULL;
        }
    }

    void mix(const std::string &s) { mix(s.data(), s.size()); }

    void
    mix64(std::uint64_t v)
    {
        mix(&v, sizeof(v));
    }
};

} // namespace edge

#endif // EDGE_COMMON_HASH_HH
