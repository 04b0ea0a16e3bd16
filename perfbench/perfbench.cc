/**
 * @file
 * The edgesim benchmark driver (README.md in this directory defines
 * the workloads and metrics). One process runs one workload for a
 * fixed host-time budget, prints every metric by name and unit, and
 * ends with one JSON line. It measures each layer from outside, by
 * timing calls into public functions and reading sim::RunResult
 * counters; it changes nothing in the simulator.
 *
 *   perfbench --workload alias-dsre|mem-stream|paper-repro --seed N
 *             --seconds S --trace 0|1 --golden DIR --bench-dir DIR
 *             [--trace-out FILE] [--work-dir DIR] [--record] [--tiny]
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced passes, prints the per-layer metrics of the
 * traced ones plus the tracing overhead, and writes the spans to
 * --trace-out at exit. --record writes the run's results as the golden
 * record instead of comparing against it. --tiny shrinks every input,
 * for the benchmark's own test.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hostinfo.hh"
#include "common/logging.hh"
#include "compiler/ref_executor.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

extern char **environ;

using namespace edge;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(const rusage &ru)
{
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** User plus system CPU seconds of this process so far. */
double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return cpuSeconds(ru);
}

/**
 * Peak resident set of this process image, in MB (VmHWM). Unlike
 * getrusage's ru_maxrss it is not inherited across execve, so the
 * launcher's own peak does not leak into it.
 */
double
selfPeakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Quartile q (1 or 3), interpolating between order statistics. */
double
quartile(std::vector<double> v, int q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = (static_cast<double>(v.size()) - 1.0) * q / 4.0;
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------
// Workloads.

/** An in-process workload: every kernel under every config, serially. */
struct SerialWorkload
{
    std::string name;
    std::vector<std::string> kernels;
    std::vector<std::string> configs;
    unsigned frames;
    unsigned dramLatency; ///< 0 keeps the default
    std::uint64_t iterations;
};

// alias-dsre: host time goes to LSQ violation/resend handling, DSRE
// re-execution waves and the operand mesh (the paper's Fig. 6 axis).
// mem-stream: no violations and no re-execution; host time goes to the
// caches, DRAM, next-block prediction and skipping long miss stalls
// (the paper's Fig. 9 axis).
const std::vector<SerialWorkload> kSerialWorkloads = {
    {"alias-dsre",
     {"parserish", "swimish", "vortexish", "bzip2ish"},
     {"dsre", "storesets-dsre", "blind-flush", "storesets-flush"},
     16, 0, 2000},
    {"mem-stream",
     {"mcfish", "artish", "equakeish", "gccish"},
     {"conservative", "oracle", "storesets-flush"},
     8, 400, 6000},
};

/** The paper-reproduction binaries, in the order paper-repro runs them. */
const std::vector<std::string> kPaperBenches = {
    "bench_table1_config",   "bench_table2_workloads",
    "bench_fig5_speedup",    "bench_fig6_window_scaling",
    "bench_fig7_violations", "bench_fig8_reexec",
    "bench_fig9_latency",    "bench_fig10_ablation",
    "bench_fig11_network",   "bench_ext_value_pred"};

/** Iterations of every kernel paper-repro's set-up builds and prepares:
 *  the paper benches' default (bench_util's BenchArgs). */
constexpr std::uint64_t kPaperSetupIterations = 2000;
/** Iterations every input shrinks to under --tiny. */
constexpr std::uint64_t kTinyIterations = 40;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string golden;
    std::string benchDir;
    std::string traceOut;
    std::string workDir = ".";
    bool record = false;
    bool tiny = false;
};

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written once at exit.

class Tracer
{
  public:
    struct Span
    {
        std::string name;  ///< layer boundary, e.g. "runShared"
        std::string label; ///< what it ran, e.g. "parserish/dsre"
        double start = 0;  ///< seconds since the tracer started
        double end = 0;
        double cpu = 0;    ///< CPU seconds (process and pass spans)
        int parent = -1;
    };

    int
    open(const char *name, const std::string &label, int parent)
    {
        _spans.push_back({name, label, now(), 0, 0, parent});
        return static_cast<int>(_spans.size()) - 1;
    }

    void
    close(int id, double cpu = 0)
    {
        _spans[id].end = now();
        _spans[id].cpu = cpu;
    }

    /** Ids of the spans named `name` under `parent`. */
    std::vector<int>
    children(int parent, const std::string &name) const
    {
        std::vector<int> out;
        for (std::size_t i = 0; i < _spans.size(); ++i)
            if (_spans[i].parent == parent && _spans[i].name == name)
                out.push_back(static_cast<int>(i));
        return out;
    }

    double
    duration(int id) const
    {
        return _spans[id].end - _spans[id].start;
    }

    /** Summed duration of the children of `parent` named `name`. */
    double
    childTime(int parent, const std::string &name) const
    {
        double t = 0;
        for (int id : children(parent, name))
            t += duration(id);
        return t;
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", \"label\": "
                         "\"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"cpu_s\": %.6f, \"parent\": %d}%s\n",
                         i, s.name.c_str(), s.label.c_str(), s.start,
                         s.end, s.cpu, s.parent,
                         i + 1 < _spans.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    double now() const { return secondsSince(_t0); }

    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
};

/** Open a span when `tr` is set (a traced pass); -1 otherwise. */
int
spanOpen(Tracer *tr, const char *name, const std::string &label,
         int parent)
{
    return tr ? tr->open(name, label, parent) : -1;
}

void
spanClose(Tracer *tr, int id, double cpu = 0)
{
    if (tr)
        tr->close(id, cpu);
}

// ---------------------------------------------------------------------
// Golden record and failure accounting.

/** The numeric fields of one golden item (a cell or the parameters). */
using Fields = std::vector<std::pair<std::string, std::uint64_t>>;

/** Golden file: one item per line, "<item> <field>=<value> ...". */
using Golden = std::map<std::string, Fields>;

Golden
loadGolden(const std::string &path)
{
    Golden g;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        std::istringstream in(line);
        std::string item, kv;
        in >> item;
        Fields &fields = g[item];
        while (in >> kv) {
            auto eq = kv.find('=');
            if (eq != std::string::npos)
                fields.emplace_back(kv.substr(0, eq),
                                    std::stoull(kv.substr(eq + 1)));
        }
    }
    return g;
}

void
writeGoldenLine(std::FILE *f, const std::string &item,
                const Fields &fields)
{
    std::fprintf(f, "%s", item.c_str());
    for (const auto &[k, v] : fields)
        std::fprintf(f, " %s=%llu", k.c_str(),
                     static_cast<unsigned long long>(v));
    std::fprintf(f, "\n");
}

/**
 * "" when every field of `want` is in `got` with the same value, else
 * the differing fields. Fields `want` lacks (counters added after the
 * golden was recorded) are not compared.
 */
std::string
diffFields(const Fields &want, const Fields &got)
{
    std::map<std::string, std::uint64_t> have(got.begin(), got.end());
    std::string out;
    int n = 0;
    for (const auto &[k, v] : want) {
        auto it = have.find(k);
        if (it != have.end() && it->second == v)
            continue;
        if (n++ < 4)
            out += (out.empty() ? "" : ", ") + k + " " +
                   std::to_string(v) + " -> " +
                   (it == have.end() ? std::string("missing")
                                     : std::to_string(it->second));
    }
    if (n > 4)
        out += ", and " + std::to_string(n - 4) + " more";
    return out;
}

/** diffFields against the golden item, which must exist. */
std::string
diffGolden(const Golden &golden, const std::string &item,
           const Fields &got)
{
    auto it = golden.find(item);
    return it == golden.end() ? "not in the golden record"
                              : diffFields(it->second, got);
}

/** Attempts and failures of one run, naming the first failure of each
 *  failing item. */
struct Checker
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::string> failures;

    void
    record(const std::string &item, const std::string &why)
    {
        ++attempted;
        if (why.empty())
            return;
        ++failed;
        failures.emplace(item, why);
    }
};

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** One summary line: median, quartiles and sample count. */
void
printSummary(const std::string &name, const std::string &unit,
             const std::vector<double> &samples)
{
    std::printf("  %-30s %14.6f %-8s q1 %14.6f  q3 %14.6f  n=%zu\n",
                name.c_str(), median(samples), unit.c_str(),
                quartile(samples, 1), quartile(samples, 3),
                samples.size());
}

void
printResult(const Checker &chk, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                chk.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(chk.attempted),
                static_cast<unsigned long long>(chk.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Measurements shared by the workloads.

/** host.calib_ms: a fixed RefExecutor run, timed in this process. */
double
calibrateHost()
{
    const isa::Program prog = wl::build("gzipish", {20000, 1});
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        compiler::RefExecutor ref(prog);
        compiler::RefExecutor::Result r = ref.run(50'000'000);
        ms.push_back(1e3 * secondsSince(t0));
        if (!r.halted)
            fatal("calibration program did not halt");
    }
    return median(ms);
}

/** Kernels built (wl::build) and prepared (Simulator::prepare) once. */
struct Prepared
{
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::uint64_t refInsts = 0;
};

Prepared
buildAndPrepare(const std::vector<std::string> &kernels,
                std::uint64_t iterations, std::uint64_t seed,
                const core::MachineConfig &config, Tracer *tr, int parent)
{
    Prepared p;
    for (const std::string &k : kernels) {
        int b = spanOpen(tr, "wl::build", k, parent);
        isa::Program prog = wl::build(k, {iterations, seed});
        spanClose(tr, b);
        int s = spanOpen(tr, "Simulator::prepare", k, parent);
        auto sim = std::make_unique<sim::Simulator>(std::move(prog),
                                                    config);
        sim->prepare();
        spanClose(tr, s);
        p.refInsts += sim->refDynInsts();
        p.sims.push_back(std::move(sim));
    }
    return p;
}

/** Per-layer set-up metrics from the traced "setup" spans. */
void
setupLayerMetrics(const Tracer &tr, std::uint64_t ref_insts,
                  std::map<std::string, double> &out)
{
    std::vector<double> build, prep;
    for (int root : tr.children(-1, "setup")) {
        build.push_back(tr.childTime(root, "wl::build"));
        prep.push_back(tr.childTime(root, "Simulator::prepare"));
    }
    out["workloads.build_s"] = median(build);
    out["compiler.prepare_s"] = median(prep);
    out["compiler.ref_minsts_per_s"] =
        median(prep) > 0 ? 1e-6 * static_cast<double>(ref_insts) /
                               median(prep)
                         : 0;
}

/** One timed pass over a workload's cells or binaries. */
struct Pass
{
    double wall = 0;
    double cpu = 0;
    std::uint64_t insts = 0;
    bool traced = false;
};

/** End-to-end samples common to both kinds of workload. */
struct Samples
{
    std::vector<double> wall, cpu, kips, setup;
    double peakRssMb = 0;
};

/** What a workload builds and prepares before each pass. */
struct SetupSpec
{
    std::vector<std::string> kernels;
    std::uint64_t iterations;
    std::uint64_t seed;
    core::MachineConfig config;
};

/** Set-ups timed before each pass (setup_s samples). */
constexpr int kSetupsPerPass = 3;

/**
 * Run passes until the budget is spent and at least `min_passes` ran.
 * Before each pass the workload is set up kSetupsPerPass times, each a
 * setup_s sample, and the last set-up is handed to the pass; spreading
 * the set-ups over the run exposes them to the same host conditions as
 * the passes. In traced runs every other pass, with its set-ups, is
 * traced.
 */
template <typename RunPass>
std::vector<Pass>
runPasses(const Options &opt, const SetupSpec &setup, int min_passes,
          Tracer &tracer, std::vector<double> &setup_s, RunPass run_pass)
{
    std::vector<Pass> passes;
    Clock::time_point t0 = Clock::now();
    for (int i = 0;
         i < min_passes || secondsSince(t0) < opt.seconds; ++i) {
        bool traced = opt.trace && i % 2 == 1;
        Tracer *tr = traced ? &tracer : nullptr;
        Prepared prep;
        for (int rep = 0; rep < kSetupsPerPass; ++rep) {
            prep = {}; // free the previous set-up before the next
            int root = spanOpen(tr, "setup", std::to_string(i), -1);
            Clock::time_point s0 = Clock::now();
            prep = buildAndPrepare(setup.kernels, setup.iterations,
                                   setup.seed, setup.config, tr, root);
            setup_s.push_back(secondsSince(s0));
            spanClose(tr, root);
        }
        Pass p = run_pass(i, tr, prep);
        p.traced = traced;
        passes.push_back(p);
    }
    return passes;
}

/** The end-to-end samples of the untraced passes. */
void
addPassSamples(const std::vector<Pass> &passes, Samples &smp)
{
    for (const Pass &p : passes) {
        if (p.traced)
            continue;
        smp.wall.push_back(p.wall);
        smp.cpu.push_back(p.cpu);
        smp.kips.push_back(1e-3 * static_cast<double>(p.insts) / p.wall);
    }
}

/** Wall-time ratio of traced to untraced passes, minus one. */
double
traceOverhead(const std::vector<Pass> &passes)
{
    std::vector<double> on, off;
    for (const Pass &p : passes)
        (p.traced ? on : off).push_back(p.wall);
    return on.empty() || off.empty() ? 0 : median(on) / median(off) - 1;
}

// ---------------------------------------------------------------------
// Serial in-process workloads.

core::MachineConfig
cellConfig(const SerialWorkload &w, const std::string &config,
           std::uint64_t seed)
{
    core::MachineConfig cfg = sim::Configs::byName(config);
    cfg.core.numFrames = w.frames;
    if (w.dramLatency)
        cfg.mem.dramLatency = w.dramLatency;
    cfg.rngSeed = seed;
    return cfg;
}

Fields
cellFields(const sim::RunResult &r)
{
    Fields f = {{"cycles", r.cycles},
                {"insts", r.committedInsts},
                {"blocks", r.committedBlocks}};
    f.insert(f.end(), r.counters.begin(), r.counters.end());
    return f;
}

/** Sum of a counter over a pass's results. */
std::uint64_t
sumCounter(const std::vector<sim::RunResult> &rs, const std::string &name)
{
    std::uint64_t s = 0;
    for (const sim::RunResult &r : rs)
        s += r.counter(name);
    return s;
}

std::uint64_t
sumBanks(const std::vector<sim::RunResult> &rs, const std::string &stat)
{
    std::uint64_t s = 0;
    for (int bank = 0; bank < 4; ++bank)
        s += sumCounter(rs, "l1d" + std::to_string(bank) + "." + stat);
    return s;
}

/** The per-layer work counters of one pass (deterministic). */
void
counterLayerMetrics(const std::vector<sim::RunResult> &rs,
                    std::map<std::string, double> &out)
{
    auto c = [&](const std::string &name) {
        return static_cast<double>(sumCounter(rs, name));
    };
    for (const char *k : {"loads", "stores", "violations", "resends",
                          "deferrals", "forwards"})
        out[std::string("lsq.") + k] = c(std::string("lsq.") + k);
    out["core.alu_issues"] = c("core.alu_issues");
    out["core.reexec_frac"] = c("core.alu_issues") > 0
                                  ? c("core.alu_reexecs") /
                                        c("core.alu_issues")
                                  : 0;
    out["core.upgrades"] = c("core.upgrades");
    out["core.viol_flushes"] = c("core.viol_flushes");
    out["net.messages"] = c("net.messages");
    out["net.hops"] = c("net.hops");
    out["net.queue_cycles"] = c("net.queue_cycles");
    out["net.gcn_messages"] = c("gcn.messages");
    out["mem.l1d_hits"] = static_cast<double>(sumBanks(rs, "hits"));
    out["mem.l1d_misses"] = static_cast<double>(sumBanks(rs, "misses"));
    out["mem.l2_misses"] = c("l2.misses");
    out["mem.dram_reads"] = c("dram.reads");
    out["mem.mshr_stalls"] =
        static_cast<double>(sumBanks(rs, "mshr_stalls")) +
        c("l2.mshr_stalls");
    out["predictor.nbp_lookups"] = c("nbp.lookups");
    out["predictor.nbp_wrong"] = c("nbp.wrong");
    out["predictor.dep_waits"] = c("lsq.policy_holds");
    double cycles = 0, insts = 0;
    for (const sim::RunResult &r : rs) {
        cycles += static_cast<double>(r.cycles);
        insts += static_cast<double>(r.committedInsts);
    }
    out["core.cycles"] = cycles;
    out["core.committed_insts"] = insts;
    out["core.ipc"] = cycles > 0 ? insts / cycles : 0;
    out["core.commit_frac"] = c("core.fetched_blocks") > 0
                                  ? c("core.committed_blocks") /
                                        c("core.fetched_blocks")
                                  : 0;
    out["core.ctrl_flushes"] = c("core.ctrl_flushes");
}

std::string
goldenPath(const Options &opt, const std::string &workload)
{
    return opt.golden + "/" + workload + ".seed" +
           std::to_string(opt.seed) + ".txt";
}

void
runSerial(const Options &opt, const SerialWorkload &w, Checker &chk,
          Samples &smp, std::map<std::string, double> &layer,
          Tracer &tracer)
{
    const std::uint64_t iters = opt.tiny ? kTinyIterations : w.iterations;
    std::printf("workload %s: %zu kernels x %zu configs, %llu iterations, "
                "%u frames, dram latency %s\n",
                w.name.c_str(), w.kernels.size(), w.configs.size(),
                static_cast<unsigned long long>(iters), w.frames,
                w.dramLatency ? std::to_string(w.dramLatency).c_str()
                              : "default");

    const SetupSpec setup = {w.kernels, iters, opt.seed,
                             cellConfig(w, w.configs.front(), opt.seed)};

    const Fields params = {{"seed", opt.seed},
                           {"iterations", iters},
                           {"frames", w.frames},
                           {"dram_latency", w.dramLatency}};
    const std::string gpath = goldenPath(opt, w.name);
    Golden golden;
    if (!opt.record)
        golden = loadGolden(gpath);
    if (!golden.empty())
        chk.record("params", diffGolden(golden, "params", params));
    std::printf("golden record: %s\n",
                opt.record        ? "recording"
                : golden.empty()  ? "none for this seed (cells are "
                                    "checked against the reference and "
                                    "against each other)"
                                  : gpath.c_str());

    // The first pass's results are the reference the others must
    // repeat exactly; its counters give the per-layer work counts.
    std::vector<sim::RunResult> first;
    std::map<std::string, std::vector<double>> cell_ms;
    std::vector<double> run_s, ns_per_cycle;

    std::uint64_t ref_insts = 0;
    auto run_pass = [&](int index, Tracer *tr, const Prepared &prep) {
        Pass p;
        ref_insts = prep.refInsts;
        std::vector<sim::RunResult> results;
        int root = spanOpen(tr, "pass", std::to_string(index), -1);
        double cpu0 = selfCpuSeconds();
        Clock::time_point t0 = Clock::now();
        for (std::size_t k = 0; k < w.kernels.size(); ++k) {
            for (const std::string &c : w.configs) {
                const std::string item = w.kernels[k] + "/" + c;
                int s = spanOpen(tr, "runShared", item, root);
                results.push_back(prep.sims[k]->runShared(
                    cellConfig(w, c, opt.seed)));
                spanClose(tr, s);
            }
        }
        p.wall = secondsSince(t0);
        p.cpu = selfCpuSeconds() - cpu0;
        spanClose(tr, root, p.cpu);

        const std::vector<int> spans =
            tr ? tr->children(root, "runShared") : std::vector<int>{};
        std::size_t i = 0;
        std::uint64_t cycles = 0;
        for (const std::string &k : w.kernels) {
            for (const std::string &c : w.configs) {
                const std::string item = k + "/" + c;
                const sim::RunResult &r = results[i];
                std::string why;
                if (!r.halted || !r.archMatch || !r.error.ok())
                    why = "did not verify against the reference: " +
                          (r.error.ok() ? std::string("no halt or state "
                                                      "mismatch")
                                        : r.error.format());
                else if (!golden.empty())
                    why = diffGolden(golden, item, cellFields(r));
                else if (!first.empty())
                    why = diffFields(cellFields(first[i]),
                                     cellFields(r));
                chk.record(item, why);
                p.insts += r.committedInsts;
                cycles += r.cycles;
                if (tr)
                    cell_ms[item].push_back(1e3 * tr->duration(spans[i]));
                ++i;
            }
        }
        if (tr) {
            double t = tr->childTime(root, "runShared");
            run_s.push_back(t);
            ns_per_cycle.push_back(cycles ? 1e9 * t / cycles : 0);
        }
        if (first.empty())
            first = std::move(results);
        return p;
    };
    std::vector<Pass> passes = runPasses(
        opt, setup, opt.trace ? 4 : 3, tracer, smp.setup, run_pass);

    if (opt.record) {
        std::FILE *f = std::fopen(gpath.c_str(), "w");
        if (!f)
            fatal("cannot write %s", gpath.c_str());
        writeGoldenLine(f, "params", params);
        std::size_t i = 0;
        for (const std::string &k : w.kernels)
            for (const std::string &c : w.configs)
                writeGoldenLine(f, k + "/" + c, cellFields(first[i++]));
        if (std::fclose(f) != 0)
            fatal("cannot write %s", gpath.c_str());
    }

    addPassSamples(passes, smp);
    smp.peakRssMb = selfPeakRssMb();

    if (opt.trace) {
        setupLayerMetrics(tracer, ref_insts, layer);
        counterLayerMetrics(first, layer);
        layer["sim.run_s"] = median(run_s);
        layer["sim.host_ns_per_cycle"] = median(ns_per_cycle);
        for (const auto &[item, ms] : cell_ms) {
            std::string name = "cell." + item + ".ms";
            std::replace(name.begin(), name.end(), '/', '.');
            layer[name] = median(ms);
        }
        std::vector<double> busy;
        for (const Pass &p : passes)
            if (p.traced)
                busy.push_back(p.cpu / p.wall);
        layer["pool.busy_frac"] = median(busy);
        layer["trace.overhead_frac"] = traceOverhead(passes);
    }
}

// ---------------------------------------------------------------------
// paper-repro: the ten paper binaries as child processes.

struct ChildRun
{
    int status = -1; ///< -1 when the child could not be started
    std::string out;
    double wall = 0;
    double cpu = 0;
    double maxRssMb = 0;
};

/** Run argv[0] with its stdout captured; waits for it to end. */
ChildRun
runChild(const std::vector<std::string> &argv)
{
    ChildRun cr;
    int fds[2];
    if (pipe(fds) != 0)
        fatal("pipe: %s", std::strerror(errno));
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    Clock::time_point t0 = Clock::now();
    pid_t pid = -1;
    int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        cr.out = "cannot start " + argv[0] + ": " + std::strerror(rc);
        return cr;
    }
    char buf[65536];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            cr.out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    rusage ru{};
    while (wait4(pid, &cr.status, 0, &ru) < 0 && errno == EINTR) {
    }
    cr.wall = secondsSince(t0);
    cr.cpu = cpuSeconds(ru);
    cr.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return cr;
}

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream f(path, std::ios::binary);
    ok = static_cast<bool>(f);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Sum of every `"key": N` number in a bench --json file. */
std::uint64_t
sumJsonField(const std::string &text, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    std::uint64_t s = 0;
    for (std::size_t at = text.find(pat); at != std::string::npos;
         at = text.find(pat, at + 1))
        s += std::strtoull(text.c_str() + at + pat.size(), nullptr, 10);
    return s;
}

/** First differing line of two outputs, for the failure report. */
std::string
firstDiff(const std::string &want, const std::string &got)
{
    std::istringstream a(want), b(got);
    std::string la, lb;
    for (int line = 1;; ++line) {
        bool ea = !std::getline(a, la), eb = !std::getline(b, lb);
        if (ea && eb)
            return "stdout differs";
        if (ea != eb || la != lb)
            return "stdout line " + std::to_string(line) + ": \"" +
                   (ea ? std::string("<end>") : la) + "\" -> \"" +
                   (eb ? std::string("<end>") : lb) + "\"";
    }
}

void
runPaperRepro(const Options &opt, Checker &chk, Samples &smp,
              std::map<std::string, double> &layer, Tracer &tracer)
{
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::printf("workload paper-repro: %zu binaries, -j %u, %s sizes\n",
                kPaperBenches.size(), threads,
                opt.tiny ? "tiny" : "default");

    // Set-up: the per-program work every bench binary repeats (build
    // and prepare each kernel), measured in-process.
    core::MachineConfig base = sim::Configs::dsre();
    base.rngSeed = opt.seed;
    const SetupSpec setup = {
        wl::kernelNames(),
        opt.tiny ? kTinyIterations : kPaperSetupIterations, opt.seed,
        base};

    const std::string gdir = opt.golden + "/paper-repro";
    const std::string json = opt.workDir + "/perfbench-cells.json";
    std::map<std::string, std::vector<double>> wall_of, cpu_of;
    std::vector<double> busy;
    double insts_first = 0, cycles_first = 0;

    // The stdout every pass must reproduce: the golden copy or, when
    // recording, the first pass's.
    std::map<std::string, std::string> want;
    for (const std::string &b : kPaperBenches) {
        bool ok = false;
        std::string out = readFile(gdir + "/" + b + ".txt", ok);
        if (ok && !opt.record)
            want[b] = out;
    }

    std::uint64_t ref_insts = 0;
    auto run_pass = [&](int index, Tracer *tr, const Prepared &prep) {
        Pass p;
        ref_insts = prep.refInsts;
        int root = spanOpen(tr, "pass", std::to_string(index), -1);
        double pass_wall = 0, pass_cpu = 0;
        for (const std::string &b : kPaperBenches) {
            std::vector<std::string> argv = {opt.benchDir + "/" + b};
            if (opt.tiny)
                argv.push_back(std::to_string(kTinyIterations));
            argv.insert(argv.end(), {"-j", std::to_string(threads),
                                     "--json", json});
            std::remove(json.c_str());
            int s = spanOpen(tr, "process", b, root);
            ChildRun cr = runChild(argv);
            spanClose(tr, s, cr.cpu);
            pass_wall += cr.wall;
            pass_cpu += cr.cpu;
            smp.peakRssMb = std::max(smp.peakRssMb, cr.maxRssMb);

            bool have_json = false;
            std::string cells = readFile(json, have_json);
            const auto insts = sumJsonField(cells, "insts");
            p.insts += insts;
            if (index == 0) {
                insts_first += static_cast<double>(insts);
                cycles_first +=
                    static_cast<double>(sumJsonField(cells, "cycles"));
            }

            std::string why;
            if (cr.status == -1)
                why = cr.out;
            else if (!WIFEXITED(cr.status) || WEXITSTATUS(cr.status) != 0)
                why = "exit status " + std::to_string(cr.status);
            else if (opt.record && index == 0)
                want[b] = cr.out;
            else if (!want.count(b))
                why = "no golden stdout for " + b;
            else if (want[b] != cr.out)
                why = firstDiff(want[b], cr.out);
            chk.record(b, why);
            if (tr) {
                wall_of[b].push_back(cr.wall);
                cpu_of[b].push_back(cr.cpu);
                busy.push_back(cr.cpu / (threads * cr.wall));
            }
        }
        p.wall = pass_wall;
        p.cpu = pass_cpu;
        spanClose(tr, root, pass_cpu);
        return p;
    };
    std::vector<Pass> passes = runPasses(
        opt, setup, opt.trace ? 4 : 3, tracer, smp.setup, run_pass);
    std::remove(json.c_str());
    if (opt.record) {
        for (const auto &[b, out] : want) {
            std::ofstream f(gdir + "/" + b + ".txt", std::ios::binary);
            if (!(f << out))
                fatal("cannot write the golden stdout of %s", b.c_str());
        }
    }

    addPassSamples(passes, smp);
    if (opt.trace) {
        setupLayerMetrics(tracer, ref_insts, layer);
        for (const std::string &b : kPaperBenches) {
            layer["repro." + b + ".wall_s"] = median(wall_of[b]);
            layer["repro." + b + ".cpu_s"] = median(cpu_of[b]);
        }
        layer["pool.busy_frac"] = median(busy);
        layer["core.cycles"] = cycles_first;
        layer["core.committed_insts"] = insts_first;
        layer["core.ipc"] =
            cycles_first > 0 ? insts_first / cycles_first : 0;
        layer["trace.overhead_frac"] = traceOverhead(passes);
    }
}

// ---------------------------------------------------------------------

/** Every per-layer metric, with its unit, in print order. */
std::vector<Metric>
layerMetricNames()
{
    std::vector<Metric> m = {
        {"host.calib_ms", "ms"},
        {"trace.overhead_frac", "frac"},
        {"workloads.build_s", "s"},
        {"compiler.prepare_s", "s"},
        {"compiler.ref_minsts_per_s", "Minst/s"},
        {"sim.run_s", "s"},
        {"sim.host_ns_per_cycle", "ns"},
    };
    for (const SerialWorkload &w : kSerialWorkloads)
        for (const std::string &k : w.kernels)
            for (const std::string &c : w.configs)
                m.push_back({"cell." + k + "." + c + ".ms", "ms"});
    for (const char *n :
         {"lsq.loads", "lsq.stores", "lsq.violations", "lsq.resends",
          "lsq.deferrals", "lsq.forwards", "core.alu_issues"})
        m.push_back({n, "count"});
    m.push_back({"core.reexec_frac", "frac"});
    for (const char *n :
         {"core.upgrades", "core.viol_flushes", "net.messages",
          "net.hops", "net.queue_cycles", "net.gcn_messages",
          "mem.l1d_hits", "mem.l1d_misses", "mem.l2_misses",
          "mem.dram_reads", "mem.mshr_stalls", "predictor.nbp_lookups",
          "predictor.nbp_wrong", "predictor.dep_waits"})
        m.push_back({n, "count"});
    m.push_back({"core.cycles", "cycles"});
    m.push_back({"core.committed_insts", "count"});
    m.push_back({"core.ipc", "inst/cycle"});
    m.push_back({"core.commit_frac", "frac"});
    m.push_back({"core.ctrl_flushes", "count"});
    m.push_back({"pool.busy_frac", "frac"});
    for (const std::string &b : kPaperBenches) {
        m.push_back({"repro." + b + ".wall_s", "s"});
        m.push_back({"repro." + b + ".cpu_s", "s"});
    }
    return m;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "alias-dsre|mem-stream|paper-repro --seed N --seconds S "
                 "--trace 0|1 --golden DIR --bench-dir DIR "
                 "[--trace-out FILE] [--work-dir DIR] [--record] "
                 "[--tiny]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::stoull(next());
        else if (a == "--seconds")
            opt.seconds = std::stod(next());
        else if (a == "--trace")
            opt.trace = next() != "0";
        else if (a == "--golden")
            opt.golden = next();
        else if (a == "--bench-dir")
            opt.benchDir = next();
        else if (a == "--trace-out")
            opt.traceOut = next();
        else if (a == "--work-dir")
            opt.workDir = next();
        else if (a == "--record")
            opt.record = true;
        else if (a == "--tiny")
            opt.tiny = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (opt.workload.empty() || opt.golden.empty())
        usage("--workload and --golden are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const SerialWorkload *serial = nullptr;
    for (const SerialWorkload &w : kSerialWorkloads)
        if (w.name == opt.workload)
            serial = &w;
    if (!serial && opt.workload != "paper-repro")
        usage(("unknown workload " + opt.workload).c_str());
    if (!serial && opt.benchDir.empty())
        usage("paper-repro needs --bench-dir");

    const HostInfo &host = hostInfo();
    std::printf("host: cpu \"%s\", nproc %u, build %s, sanitizer %s\n",
                host.cpuModel.c_str(), host.cores, host.buildType.c_str(),
                host.sanitizer.c_str());
    if (host.buildType != "Release" || host.sanitizer != "OFF") {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build with "
                     "sanitizer %s; build with CMAKE_BUILD_TYPE=Release "
                     "and no sanitizer\n",
                     host.buildType.c_str(), host.sanitizer.c_str());
        return 3;
    }
    std::fflush(stdout);

    std::map<std::string, double> layer;
    layer["host.calib_ms"] = calibrateHost();
    std::printf("host.calib_ms %.3f ms (fixed RefExecutor run)\n",
                layer["host.calib_ms"]);

    if (opt.record)
        std::filesystem::create_directories(opt.golden + "/paper-repro");

    Checker chk;
    Samples smp;
    Tracer tracer;
    if (serial)
        runSerial(opt, *serial, chk, smp, layer, tracer);
    else
        runPaperRepro(opt, chk, smp, layer, tracer);

    for (const auto &[item, why] : chk.failures)
        std::printf("FAILED %s: %s\n", item.c_str(), why.c_str());
    std::printf("fail_frac %.6f (%llu failed of %llu attempted)\n",
                chk.attempted ? static_cast<double>(chk.failed) /
                                    static_cast<double>(chk.attempted)
                              : 0.0,
                static_cast<unsigned long long>(chk.failed),
                static_cast<unsigned long long>(chk.attempted));

    std::vector<Metric> metrics;
    if (!opt.trace) {
        std::printf("end-to-end (untraced passes):\n");
        printSummary("wall_s", "s", smp.wall);
        printSummary("cpu_s", "s", smp.cpu);
        printSummary("sim_kips", "kinst/s", smp.kips);
        printSummary("setup_s", "s", smp.setup);
        std::printf("  %-30s %14.3f MB\n", "peak_rss_mb", smp.peakRssMb);
        metrics = {{"wall_s", "s", median(smp.wall)},
                   {"cpu_s", "s", median(smp.cpu)},
                   {"sim_kips", "kinst/s", median(smp.kips)},
                   {"setup_s", "s", median(smp.setup)},
                   {"peak_rss_mb", "MB", smp.peakRssMb}};
    } else {
        std::printf("per-layer (traced passes; 0 where the workload "
                    "does not exercise the layer):\n");
        metrics = layerMetricNames();
        for (Metric &m : metrics) {
            m.value = layer.count(m.name) ? layer[m.name] : 0.0;
            std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        if (!opt.traceOut.empty() && !tracer.write(opt.traceOut))
            fatal("cannot write %s", opt.traceOut.c_str());
    }
    printResult(chk, metrics);
    return 0;
}
