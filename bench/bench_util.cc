#include "bench/bench_util.hh"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <tuple>

#include "common/hostinfo.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "sim/run_pool.hh"
#include "triage/jsonio.hh"
#include "triage/repro.hh"

namespace edge::bench {

std::string
RunRow::failure() const
{
    if (ok())
        return "";
    std::string why;
    if (!result.halted)
        why += "did not finish; ";
    else if (!result.archMatch)
        why += "diverged from the reference; ";
    if (!result.error.ok())
        why += result.error.format();
    return strfmt("%s/%s (seed %llu): %s", spec.kernel.c_str(),
                  spec.config.c_str(),
                  static_cast<unsigned long long>(spec.seed),
                  why.c_str());
}

BenchArgs
benchArgs(int argc, char **argv, std::uint64_t default_iters)
{
    BenchArgs args;
    args.iterations = default_iters;
    args.start = std::chrono::steady_clock::now();
    if (const char *dir = std::getenv("EDGE_REPRO_DIR"))
        args.reproDir = dir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s needs an argument", arg.c_str());
            return argv[++i];
        };
        if (arg == "-j") {
            args.threads =
                static_cast<unsigned>(parseU64(arg, next(), UINT_MAX));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            args.threads = static_cast<unsigned>(
                parseU64("-j", arg.substr(2), UINT_MAX));
        } else if (arg == "--json") {
            args.jsonPath = next();
        } else if (arg == "--repro-dir") {
            args.reproDir = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [iterations] [-j N] [--json path] "
                        "[--repro-dir dir]\n",
                        argv[0]);
            std::exit(0);
        } else if (!arg.empty() && arg[0] != '-') {
            args.iterations = parseU64("iterations", arg);
        } else {
            fatal("unknown bench argument '%s' "
                  "(usage: [iterations] [-j N] [--json path] "
                  "[--repro-dir dir])",
                  arg.c_str());
        }
    }
    return args;
}

RunRow
runOne(const RunSpec &spec)
{
    wl::KernelParams kp;
    kp.iterations = spec.iterations;
    kp.seed = spec.seed;
    core::MachineConfig cfg = sim::Configs::byName(spec.config);
    if (spec.tweak)
        spec.tweak(cfg);
    sim::Simulator s(wl::build(spec.kernel, kp), cfg);
    return {spec, s.run(spec.maxCycles)};
}

std::vector<RunRow>
runSpecs(const std::vector<RunSpec> &specs, unsigned threads)
{
    // One program per distinct (kernel, iterations, seed); every cell
    // of that kernel shares its reference execution via the RunPool.
    using ProgKey = std::tuple<std::string, std::uint64_t, std::uint64_t>;
    std::map<ProgKey, std::unique_ptr<isa::Program>> programs;

    std::vector<sim::RunJob> jobs;
    jobs.reserve(specs.size());
    for (const RunSpec &spec : specs) {
        ProgKey key{spec.kernel, spec.iterations, spec.seed};
        auto &prog = programs[key];
        if (!prog) {
            wl::KernelParams kp;
            kp.iterations = spec.iterations;
            kp.seed = spec.seed;
            prog = std::make_unique<isa::Program>(
                wl::build(spec.kernel, kp));
        }
        sim::RunJob job;
        job.program = prog.get();
        job.config = sim::Configs::byName(spec.config);
        if (spec.tweak)
            spec.tweak(job.config);
        job.maxCycles = spec.maxCycles;
        jobs.push_back(std::move(job));
    }

    sim::RunPool pool(threads);
    std::vector<sim::RunResult> results = pool.runAll(jobs);

    std::vector<RunRow> rows;
    rows.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        rows.push_back({specs[i], std::move(results[i])});
    return rows;
}

std::vector<RunRow>
runMatrix(const std::vector<std::string> &kernels,
          const std::vector<std::string> &configs,
          std::uint64_t iterations, const ConfigTweak &tweak,
          unsigned threads)
{
    std::vector<RunSpec> specs;
    specs.reserve(kernels.size() * configs.size());
    for (const auto &k : kernels) {
        for (const auto &c : configs) {
            RunSpec spec;
            spec.kernel = k;
            spec.config = c;
            spec.iterations = iterations;
            spec.tweak = tweak;
            specs.push_back(std::move(spec));
        }
    }
    return runSpecs(specs, threads);
}

namespace {

void
writeJson(const std::string &path, const std::string &bench_name,
          const BenchArgs &args, const std::vector<RunRow> &rows,
          double wall_seconds, std::size_t quarantined,
          std::size_t fatal_cells)
{
    using triage::JsonValue;
    const HostInfo &h = hostInfo();
    JsonValue host = JsonValue::object();
    host.set("cpu_model", JsonValue::str(h.cpuModel));
    host.set("cores", JsonValue::u64(h.cores));
    host.set("build_type", JsonValue::str(h.buildType));
    host.set("sanitizer", JsonValue::str(h.sanitizer));

    JsonValue cells = JsonValue::array();
    for (const RunRow &row : rows) {
        const sim::RunResult &r = row.result;
        JsonValue c = JsonValue::object();
        c.set("kernel", JsonValue::str(row.spec.kernel));
        c.set("config", JsonValue::str(row.spec.config));
        c.set("seed", JsonValue::u64(row.spec.seed));
        c.set("cycles", JsonValue::u64(r.cycles));
        c.set("insts", JsonValue::u64(r.committedInsts));
        c.set("blocks", JsonValue::u64(r.committedBlocks));
        c.set("ipc", JsonValue::number(r.ipc()));
        c.set("ok", JsonValue::boolean(row.ok()));
        c.set("violations", JsonValue::u64(r.violations));
        c.set("resends", JsonValue::u64(r.resends));
        c.set("reexecs", JsonValue::u64(r.reexecs));
        c.set("upgrades", JsonValue::u64(r.upgrades));
        c.set("flushes", JsonValue::u64(r.ctrlFlushes + r.violFlushes));
        c.set("error", JsonValue::str(r.error.ok() ? ""
                                                   : r.error.format()));
        c.set("retries", JsonValue::u64(r.retries));
        c.set("backoff_ms", JsonValue::u64(r.backoffMs));
        c.set("repro", JsonValue::str(row.reproPath));
        cells.push(std::move(c));
    }

    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::str(bench_name));
    doc.set("iterations", JsonValue::u64(args.iterations));
    doc.set("threads", JsonValue::u64(args.threads == 0
                                          ? ThreadPool::defaultThreads()
                                          : args.threads));
    doc.set("host", std::move(host));
    doc.set("wall_seconds", JsonValue::number(wall_seconds));
    doc.set("cells", std::move(cells));
    doc.set("quarantined", JsonValue::u64(quarantined));
    doc.set("fatal", JsonValue::u64(fatal_cells));
    // Pretty dump(): readers scan for `"insts": N` with the space.
    std::ofstream out(path);
    if (!(out << doc.dump()))
        warn("cannot write JSON to %s", path.c_str());
}

} // namespace

int
finishBench(const std::string &bench_name, const BenchArgs &args,
            std::vector<RunRow> &rows)
{
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      args.start)
            .count();
    // Capture repros first so the failure report can point at them.
    if (!args.reproDir.empty()) {
        for (RunRow &row : rows) {
            if (row.ok())
                continue;
            core::MachineConfig cfg =
                sim::Configs::byName(row.spec.config);
            if (row.spec.tweak)
                row.spec.tweak(cfg);
            triage::ProgramRef ref{
                row.spec.kernel,
                {row.spec.iterations, row.spec.seed}};
            triage::ReproSpec spec = triage::captureFromResult(
                ref, cfg, row.spec.maxCycles, row.result);
            row.reproPath = triage::captureToFile(spec, args.reproDir);
        }
    }
    std::size_t quarantined = 0, fatal_cells = 0;
    for (const RunRow &row : rows) {
        if (row.ok())
            continue;
        if (quarantined + fatal_cells == 0)
            std::fprintf(stderr, "\nFAILED cells:\n");
        quarantined += row.quarantined() ? 1 : 0;
        fatal_cells += row.fatalTransient() ? 1 : 0;
        std::fprintf(stderr, "  %s\n", row.failure().c_str());
        if (row.result.retries != 0)
            std::fprintf(stderr, "    retries=%u backoff_ms=%llu\n",
                         row.result.retries,
                         static_cast<unsigned long long>(
                             row.result.backoffMs));
        if (!row.reproPath.empty())
            std::fprintf(stderr,
                         "    to reproduce: edgesim --replay %s\n",
                         row.reproPath.c_str());
    }
    if (!args.jsonPath.empty())
        writeJson(args.jsonPath, bench_name, args, rows, wall,
                  quarantined, fatal_cells);
    if (quarantined + fatal_cells)
        std::fprintf(stderr,
                     "%zu/%zu cells failed (%zu quarantined "
                     "deterministic, %zu fatal after retries)\n",
                     quarantined + fatal_cells, rows.size(),
                     quarantined, fatal_cells);
    return quarantined + fatal_cells ? 1 : 0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
printRow(const std::string &name, const std::vector<std::string> &cells,
         unsigned width)
{
    std::fputs(padRight(name, 14).c_str(), stdout);
    for (const auto &c : cells)
        std::fputs(padLeft(c, width).c_str(), stdout);
    std::fputc('\n', stdout);
}

void
printHeader(const std::string &name, const std::vector<std::string> &cols,
            unsigned width)
{
    printRow(name, cols, width);
    std::size_t total = 14 + cols.size() * width;
    std::fputs((std::string(total, '-') + "\n").c_str(), stdout);
}

std::string
fmtF(double v, int prec)
{
    return strfmt("%.*f", prec, v);
}

std::string
fmtU(std::uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

} // namespace edge::bench
