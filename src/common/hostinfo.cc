#include "common/hostinfo.hh"

#include <cstdio>
#include <cstring>
#include <thread>

#include "common/build_info.hh"

namespace edge {

namespace {

std::string
cpuModelName()
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "model name", 10) != 0)
            continue;
        const char *colon = std::strchr(line, ':');
        if (!colon)
            continue;
        ++colon;
        while (*colon == ' ' || *colon == '\t')
            ++colon;
        model = colon;
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == '\r'))
            model.pop_back();
        break;
    }
    std::fclose(f);
    return model;
}

} // namespace

const HostInfo &
hostInfo()
{
    static const HostInfo info = [] {
        HostInfo h;
        h.cpuModel = cpuModelName();
        h.cores = std::thread::hardware_concurrency();
        h.buildType = buildInfo().buildType;
        h.sanitizer = buildInfo().sanitizer;
        return h;
    }();
    return info;
}

} // namespace edge
