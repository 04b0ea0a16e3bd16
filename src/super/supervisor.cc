#include "super/supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "triage/result_json.hh"

namespace edge::super {

using Clock = std::chrono::steady_clock;

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;
bool g_handlers_installed = false;

void
stopHandler(int sig)
{
    g_stop_signal = sig;
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Parent-side pipe end: nonblocking, not inherited by later forks. */
void
prepParentFd(int fd)
{
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

} // namespace

void
installStopHandlers()
{
    if (g_handlers_installed)
        return;
    struct sigaction sa = {};
    sa.sa_handler = stopHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: interrupt poll() immediately
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    g_handlers_installed = true;
}

int
stopSignal()
{
    return static_cast<int>(g_stop_signal);
}

void
clearStopSignal()
{
    g_stop_signal = 0;
}

struct Supervisor::Child
{
    pid_t pid = -1;
    std::size_t index = 0;    ///< cell index in the runAll batch
    int inFd = -1;            ///< writes the spec to the child
    int outFd = -1;           ///< reads the result document
    std::string inBuf;
    std::size_t inOff = 0;
    std::string outBuf;
    bool hasDeadline = false;
    Clock::time_point deadline;
    bool timedOut = false;
};

Supervisor::Supervisor(SupervisorOptions opts) : _opts(std::move(opts))
{
    // A child that dies before reading its spec turns the parent's
    // pending write into EPIPE, which must be an errno, not a fatal
    // signal to the whole campaign.
    std::signal(SIGPIPE, SIG_IGN);
    if (_opts.jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        _opts.jobs = hw ? hw : 1;
    }
}

bool
Supervisor::stopRequested() const
{
    return _stop.load(std::memory_order_relaxed) || stopSignal() != 0;
}

bool
Supervisor::spawn(Child &c, const CellSpec &cell)
{
    int inPipe[2] = {-1, -1};
    int outPipe[2] = {-1, -1};
    if (::pipe(inPipe) != 0)
        return false;
    if (::pipe(outPipe) != 0) {
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        return false;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        return false;
    }

    if (pid == 0) {
        // Child. Wire stdin/stdout to the protocol pipes (stderr is
        // inherited: worker diagnostics land in the campaign log)
        // and become the worker.
        ::dup2(inPipe[0], STDIN_FILENO);
        ::dup2(outPipe[1], STDOUT_FILENO);
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        ::execl("/proc/self/exe", "/proc/self/exe", "--worker-cell",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }

    ::close(inPipe[0]);
    ::close(outPipe[1]);
    prepParentFd(inPipe[1]);
    prepParentFd(outPipe[0]);

    c.pid = pid;
    c.inFd = inPipe[1];
    c.outFd = outPipe[0];
    c.inBuf = cellToJson(cell).dumpCompact();
    c.inOff = 0;
    c.outBuf.clear();
    c.timedOut = false;
    c.hasDeadline = _opts.cellTimeoutMs != 0;
    if (c.hasDeadline)
        c.deadline = Clock::now() +
                     std::chrono::milliseconds(_opts.cellTimeoutMs);
    return true;
}

namespace {

/** Synthesize the structured result for a cell whose worker died (or
 *  broke protocol) instead of answering. */
sim::RunResult
deathResult(const CellSpec &cell, chaos::SimError::Reason reason,
            std::string message)
{
    sim::RunResult r;
    r.error.reason = reason;
    r.error.message = std::move(message);
    r.rngSeed = cell.config.rngSeed;
    r.chaosSeed = cell.config.chaos.seed;
    return r;
}

/** Classify a reaped child's wait status (worker-protocol table:
 *  docs/PROTOCOL.md, "Supervised campaigns"). */
sim::RunResult
classifyExit(const CellSpec &cell, int status, bool timed_out,
             std::uint64_t timeout_ms, const std::string &out_buf)
{
    using Reason = chaos::SimError::Reason;

    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        if (timed_out)
            return deathResult(
                cell, Reason::WorkerTimeout,
                strfmt("worker SIGKILLed by supervisor after the "
                       "%llu ms cell deadline",
                       static_cast<unsigned long long>(timeout_ms)));
        if (sig == SIGXCPU) // an inherited `ulimit -t`
            return deathResult(cell, Reason::WorkerTimeout,
                               "worker exceeded RLIMIT_CPU");
        if (sig == SIGKILL)
            return deathResult(
                cell, Reason::WorkerKilled,
                "worker SIGKILLed (kernel OOM killer or external "
                "kill)");
        return deathResult(
            cell, Reason::WorkerCrash,
            strfmt("worker died on signal %d (%s)", sig,
                   strsignal(sig)));
    }

    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != 0)
        return deathResult(
            cell, Reason::WorkerProtocol,
            strfmt("worker exited with status %d without a result",
                   code));

    triage::JsonValue doc;
    std::string err;
    sim::RunResult r;
    if (!triage::JsonValue::parse(out_buf, &doc, &err) ||
        !triage::resultFromJson(doc, &r, &err))
        return deathResult(
            cell, Reason::WorkerProtocol,
            "worker exited 0 but returned no valid result document "
            "(" + err + ")");
    return r;
}

} // namespace

void
Supervisor::finalize(std::optional<sim::RunResult> &out,
                     sim::RunResult result)
{
    ++_completed;
    if (!(result.error.ok() && result.halted && result.archMatch))
        ++_failures;
    out = std::move(result);
}

std::vector<std::optional<sim::RunResult>>
Supervisor::runAll(const std::vector<CellSpec> &cells)
{
    std::vector<std::optional<sim::RunResult>> out(cells.size());

    std::size_t next = 0; // first cell not yet launched

    std::vector<Child> active;
    active.reserve(_opts.jobs);

    while (next < cells.size() || !active.empty()) {
        if (stopRequested()) {
            // Kill and reap everything in flight; their cells stay
            // nullopt, so the caller reports only completed work.
            for (Child &c : active) {
                ::kill(c.pid, SIGKILL);
                int st = 0;
                ::waitpid(c.pid, &st, 0);
                closeFd(c.inFd);
                closeFd(c.outFd);
            }
            active.clear();
            break;
        }

        // Launch cells in order while there is capacity.
        for (; active.size() < _opts.jobs && next < cells.size(); ++next) {
            Child c;
            c.index = next;
            if (!spawn(c, cells[next]))
                finalize(out[next],
                         deathResult(cells[next],
                                     chaos::SimError::Reason::
                                         WorkerProtocol,
                                     strfmt("fork/pipe failed: %s",
                                            std::strerror(errno))));
            else
                active.push_back(std::move(c));
        }

        // Poll every live pipe; wake early for the nearest deadline,
        // and at least every 100 ms for the stop flag.
        std::vector<pollfd> fds;
        std::vector<std::pair<std::size_t, bool>> fdOwner; // (child, isIn)
        for (std::size_t ci = 0; ci < active.size(); ++ci) {
            Child &c = active[ci];
            if (c.inFd >= 0 && c.inOff < c.inBuf.size()) {
                fds.push_back({c.inFd, POLLOUT, 0});
                fdOwner.emplace_back(ci, true);
            }
            if (c.outFd >= 0) {
                fds.push_back({c.outFd, POLLIN, 0});
                fdOwner.emplace_back(ci, false);
            }
        }
        const Clock::time_point now = Clock::now();
        int timeout_ms = 100;
        for (const Child &c : active)
            if (c.hasDeadline && !c.timedOut) {
                auto left =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        c.deadline - now)
                        .count();
                timeout_ms = std::min<int>(
                    timeout_ms,
                    static_cast<int>(std::max<long long>(0, left)));
            }
        int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), timeout_ms);
        if (rc < 0 && errno != EINTR)
            warn("supervisor: poll: %s", std::strerror(errno));

        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0)
                continue;
            Child &c = active[fdOwner[fi].first];
            if (fdOwner[fi].second) {
                // Feed the spec; a child that died early gives EPIPE,
                // which the reap below will explain better than we
                // can here.
                ssize_t n = ::write(c.inFd, c.inBuf.data() + c.inOff,
                                    c.inBuf.size() - c.inOff);
                if (n > 0)
                    c.inOff += static_cast<std::size_t>(n);
                else if (n < 0 && errno != EAGAIN && errno != EINTR)
                    closeFd(c.inFd);
                if (c.inOff >= c.inBuf.size())
                    closeFd(c.inFd); // EOF tells the worker "go"
            } else {
                char buf[65536];
                ssize_t n = ::read(c.outFd, buf, sizeof(buf));
                if (n > 0)
                    c.outBuf.append(buf, static_cast<std::size_t>(n));
                else if (n == 0 ||
                         (n < 0 && errno != EAGAIN && errno != EINTR))
                    closeFd(c.outFd);
            }
        }

        // Deadline enforcement: SIGKILL, then let the reap classify.
        const Clock::time_point after = Clock::now();
        for (Child &c : active)
            if (c.hasDeadline && !c.timedOut && after >= c.deadline) {
                c.timedOut = true;
                ::kill(c.pid, SIGKILL);
            }

        // Reap.
        for (auto it = active.begin(); it != active.end();) {
            int st = 0;
            pid_t got = ::waitpid(it->pid, &st, WNOHANG);
            if (got != it->pid) {
                ++it;
                continue;
            }
            // Drain whatever the child managed to write before dying;
            // all writers are gone, so reads terminate at EOF.
            if (it->outFd >= 0) {
                char buf[65536];
                ssize_t n;
                while ((n = ::read(it->outFd, buf, sizeof(buf))) > 0)
                    it->outBuf.append(buf,
                                      static_cast<std::size_t>(n));
            }
            closeFd(it->inFd);
            closeFd(it->outFd);

            finalize(out[it->index],
                     classifyExit(cells[it->index], st, it->timedOut,
                                  _opts.cellTimeoutMs, it->outBuf));
            it = active.erase(it);
        }
    }

    return out;
}

} // namespace edge::super
