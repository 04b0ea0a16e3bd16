#include "chaos/sim_error.hh"

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::chaos {

const char *
reasonName(SimError::Reason reason)
{
    switch (reason) {
      case SimError::Reason::None: return "none";
      case SimError::Reason::Watchdog: return "watchdog";
      case SimError::Reason::InvariantViolation: return "invariant-violation";
      case SimError::Reason::ProtocolPanic: return "protocol-panic";
      case SimError::Reason::Livelock: return "livelock";
      case SimError::Reason::WorkerCrash: return "worker-crash";
      case SimError::Reason::WorkerKilled: return "worker-killed";
      case SimError::Reason::WorkerTimeout: return "worker-timeout";
      case SimError::Reason::WorkerProtocol: return "worker-protocol";
    }
    return "?";
}

SimError::Reason
reasonByName(const std::string &name)
{
    for (SimError::Reason r :
         {SimError::Reason::None, SimError::Reason::Watchdog,
          SimError::Reason::InvariantViolation,
          SimError::Reason::ProtocolPanic, SimError::Reason::Livelock,
          SimError::Reason::WorkerCrash, SimError::Reason::WorkerKilled,
          SimError::Reason::WorkerTimeout,
          SimError::Reason::WorkerProtocol}) {
        if (name == reasonName(r))
            return r;
    }
    fatal("unknown SimError reason '%s'", name.c_str());
}

int
exitCodeFor(SimError::Reason reason)
{
    switch (reason) {
      case SimError::Reason::None: return 0;
      case SimError::Reason::Watchdog: return 10;
      case SimError::Reason::InvariantViolation: return 11;
      case SimError::Reason::ProtocolPanic: return 12;
      case SimError::Reason::Livelock: return 13;
      case SimError::Reason::WorkerCrash: return 15;
      case SimError::Reason::WorkerKilled: return 16;
      case SimError::Reason::WorkerTimeout: return 17;
      case SimError::Reason::WorkerProtocol: return 18;
    }
    return 1;
}

std::string
SimError::format() const
{
    if (ok())
        return "ok";
    std::string out = strfmt("%s at cycle %llu", reasonName(reason),
                             (unsigned long long)cycle);
    if (!invariant.empty())
        out += strfmt(" [invariant: %s]", invariant.c_str());
    if (seq != 0 && seq != kInvalidSeq)
        out += strfmt(" block seq=%llu", (unsigned long long)seq);
    if (node != 0)
        out += strfmt(" node=%u", node);
    out += "\n  ";
    out += message;
    if (!trace.empty()) {
        out += strfmt("\n  last %zu events:", trace.size());
        for (const std::string &line : trace) {
            out += "\n    ";
            out += line;
        }
    }
    return out;
}

} // namespace edge::chaos
