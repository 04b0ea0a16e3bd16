// Apart from strutil.cc so that binaries parsing no flags (perfbench's
// driver) do not link it, which leaves their code layout unchanged.

#include <cctype>
#include <charconv>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge {

std::uint64_t
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    const bool overflow = ec == std::errc::result_out_of_range;
    fatal_if(text.empty() ||
                 !std::isdigit(static_cast<unsigned char>(text[0])) ||
                 ptr != end || (ec != std::errc() && !overflow),
             "%s expects a non-negative integer, got '%s'", flag.c_str(),
             text.c_str());
    fatal_if(overflow || v > max, "%s: %s is out of range (at most %llu)",
             flag.c_str(), text.c_str(), (unsigned long long)max);
    return v;
}

} // namespace edge
