/**
 * @file
 * Campaign-throughput baseline (ROADMAP "make it fast"): how many
 * grid cells per second the simulator sustains, per kernel x
 * mechanism, plus the pooled whole-suite rate. Emits
 * BENCH_throughput.json (override with --json) so CI archives a
 * trajectory for the cycle-loop optimisation work to beat.
 *
 * Two measurements per kernel x config cell:
 *  - serial cells/sec: best-of-N wall time of a single in-process
 *    run (the per-cell cost a scheduler pays);
 *  - simulated Mcycles/sec for the same run (the cycle-loop rate the
 *    optimisation PRs target directly).
 * Then the whole matrix once more through the -j thread pool for the
 * aggregate suite cells/sec.
 *
 * --engine tick|event|both selects the cycle engine; `both` measures
 * each cell under both engines, checks they agree cycle-for-cycle,
 * and prints the per-cell event/tick speedup.
 *
 * --baseline <json> diffs against a previously committed run of this
 * bench: per-cell throughput ratios plus a gate — the run exits 3
 * when the geomean regresses more than --max-regress percent
 * (default 25). When the baseline was recorded on a different CPU
 * model the absolute rates are not comparable; the gate then falls
 * back to the engine-normalised speedup ratio (event/tick on each
 * host) when both files carry tick numbers, and is skipped with a
 * loud warning otherwise.
 *
 * Timings are wall-clock and hence machine-dependent; everything
 * else in the JSON (cycles, insts) is deterministic.
 */


#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "bench/bench_util.hh"
#include "common/hostinfo.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "triage/jsonio.hh"
#include "triage/result_json.hh"

using namespace edge;
using namespace edge::bench;

namespace {

constexpr int kReps = 3; ///< best-of-N serial timing

struct CellRate
{
    RunSpec spec;
    sim::RunResult result;
    double cellsPerSec = 0.0;     ///< under the primary engine
    double mcyclesPerSec = 0.0;
    double tickCellsPerSec = 0.0; ///< --engine both only
    bool enginesAgree = true;     ///< --engine both only
    std::vector<double> latMs;    ///< per-rep wall latency samples
};

double
secondsOf(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

ConfigTweak
engineTweak(const std::string &engine)
{
    core::EngineKind kind = core::engineByName(engine);
    return [kind](core::MachineConfig &cfg) { cfg.engine = kind; };
}

/**
 * Best-of-kReps serial cells/sec; fills *result from the first rep.
 * Every rep's wall latency (ms) is appended to *latenciesMs when
 * given — the sample set behind the p50/p95/p99 per-cell latency
 * figures.
 */
double
timeCell(const RunSpec &spec, sim::RunResult *result,
         std::vector<double> *latenciesMs = nullptr)
{
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        RunRow row = runOne(spec);
        double secs = secondsOf(std::chrono::steady_clock::now() - t0);
        if (rep == 0 && result)
            *result = std::move(row.result);
        if (secs > 0.0)
            best = std::max(best, 1.0 / secs);
        if (latenciesMs)
            latenciesMs->push_back(secs * 1e3);
    }
    return best;
}

/** Nearest-rank percentile (p in [0,100]); 0 on an empty sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double idx = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(idx);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

struct BaselineCell
{
    double cellsPerSec = 0.0;
    double tickCellsPerSec = 0.0;
};

struct Baseline
{
    std::string cpuModel;
    std::map<std::string, BaselineCell> cells; ///< "kernel|config"
};

bool
loadBaseline(const std::string &path, Baseline *out)
{
    std::ifstream in(path);
    if (!in) {
        warn("cannot read baseline %s", path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    triage::JsonValue root;
    std::string err;
    if (!triage::JsonValue::parse(ss.str(), &root, &err)) {
        warn("baseline %s is not valid JSON: %s", path.c_str(),
             err.c_str());
        return false;
    }
    if (const triage::JsonValue *host = root.get("host"))
        out->cpuModel = host->getString("cpu_model");
    if (const triage::JsonValue *cells = root.get("cells")) {
        for (const triage::JsonValue &c : cells->items()) {
            BaselineCell bc;
            if (const triage::JsonValue *v = c.get("cells_per_sec"))
                bc.cellsPerSec = v->asDouble();
            if (const triage::JsonValue *v =
                    c.get("tick_cells_per_sec"))
                bc.tickCellsPerSec = v->asDouble();
            out->cells.emplace(c.getString("kernel") + "|" +
                                   c.getString("config"),
                               bc);
        }
    }
    return !out->cells.empty();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/**
 * Diff the measured rates against the baseline and apply the
 * regression gate. Returns 0 (pass) or 3 (regression).
 */
int
compareBaseline(const BenchArgs &args,
                const std::vector<CellRate> &rates)
{
    Baseline base;
    if (!loadBaseline(args.baselinePath, &base))
        return 0; // unreadable baseline: report-only, never gate

    bool same_host = base.cpuModel.empty() ||
                     base.cpuModel == hostInfo().cpuModel;
    if (!same_host) {
        warn("baseline host CPU differs:\n  baseline: %s\n  current:  "
             "%s\nabsolute cells/sec are not comparable across hosts",
             base.cpuModel.c_str(), hostInfo().cpuModel.c_str());
    }

    std::printf("\nbaseline comparison (%s):\n",
                args.baselinePath.c_str());
    printHeader("cell", {"baseline", "current", "speedup"}, 12);

    std::vector<double> ratios;       ///< current / baseline rate
    std::vector<double> cur_speedups; ///< event/tick, this run
    std::vector<double> base_speedups;
    for (const CellRate &r : rates) {
        auto it =
            base.cells.find(r.spec.kernel + "|" + r.spec.config);
        if (it == base.cells.end() || it->second.cellsPerSec <= 0.0 ||
            r.cellsPerSec <= 0.0)
            continue;
        double ratio = r.cellsPerSec / it->second.cellsPerSec;
        ratios.push_back(ratio);
        printRow(r.spec.kernel + "/" + r.spec.config,
                 {fmtF(it->second.cellsPerSec, 1),
                  fmtF(r.cellsPerSec, 1), fmtF(ratio, 2) + "x"},
                 12);
        if (r.tickCellsPerSec > 0.0 &&
            it->second.tickCellsPerSec > 0.0) {
            cur_speedups.push_back(r.cellsPerSec / r.tickCellsPerSec);
            base_speedups.push_back(it->second.cellsPerSec /
                                    it->second.tickCellsPerSec);
        }
    }
    if (ratios.empty()) {
        warn("no overlapping cells between this run and the baseline; "
             "gate skipped");
        return 0;
    }

    double floor = 1.0 - args.maxRegressPct / 100.0;
    double gm = geomean(ratios);
    std::printf("\ngeomean vs baseline : %.2fx (gate: >= %.2fx)\n", gm,
                floor);

    if (same_host)
        return gm >= floor ? 0 : 3;

    // Cross-host: gate on the engine-normalised speedup when both
    // sides measured both engines, otherwise skip the gate.
    if (!cur_speedups.empty() && !base_speedups.empty()) {
        double norm = geomean(cur_speedups) / geomean(base_speedups);
        std::printf("engine-normalised speedup ratio: %.2fx "
                    "(cross-host gate: >= %.2fx)\n",
                    norm, floor);
        return norm >= floor ? 0 : 3;
    }
    warn("baseline lacks tick-engine numbers; cross-host gate skipped");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = benchArgs(argc, argv, 1000);
    const auto kernels = wl::kernelNames();
    const auto configs = sim::Configs::allNames();

    const bool both = args.engine == "both";
    const std::string primary = args.engine == "tick" ? "tick" : "event";
    const ConfigTweak primary_tweak = engineTweak(primary);
    const ConfigTweak tick_tweak = engineTweak("tick");

    std::printf("Campaign throughput: serial cells/sec per kernel x "
                "mechanism (engine %s, best of %d, %llu iterations)\n\n",
                args.engine.c_str(), kReps,
                static_cast<unsigned long long>(args.iterations));
    std::vector<std::string> cols = configs;
    if (both)
        cols.push_back("(speedup)");
    printHeader("benchmark", cols, 14);

    std::vector<CellRate> rates;
    rates.reserve(kernels.size() * configs.size());
    std::size_t mismatches = 0;
    for (const auto &k : kernels) {
        std::vector<std::string> cells;
        std::vector<double> row_speedups;
        for (const auto &c : configs) {
            RunSpec spec;
            spec.kernel = k;
            spec.config = c;
            spec.iterations = args.iterations;
            spec.tweak = primary_tweak;

            CellRate rate;
            rate.spec = spec;
            rate.cellsPerSec =
                timeCell(spec, &rate.result, &rate.latMs);
            rate.mcyclesPerSec =
                rate.cellsPerSec *
                static_cast<double>(rate.result.cycles) / 1e6;
            if (both) {
                RunSpec tick_spec = spec;
                tick_spec.tweak = tick_tweak;
                sim::RunResult tick_res;
                rate.tickCellsPerSec = timeCell(tick_spec, &tick_res);
                // The differential test proves full bit-identity;
                // this is a cheap cross-check that the measurement
                // itself compared like with like.
                rate.enginesAgree =
                    tick_res.cycles == rate.result.cycles &&
                    tick_res.committedInsts ==
                        rate.result.committedInsts;
                if (!rate.enginesAgree) {
                    ++mismatches;
                    warn("%s/%s: engines disagree (tick %llu cycles, "
                         "%s %llu cycles)",
                         k.c_str(), c.c_str(),
                         static_cast<unsigned long long>(
                             tick_res.cycles),
                         primary.c_str(),
                         static_cast<unsigned long long>(
                             rate.result.cycles));
                }
                if (rate.tickCellsPerSec > 0.0)
                    row_speedups.push_back(rate.cellsPerSec /
                                           rate.tickCellsPerSec);
            }
            cells.push_back(fmtF(rate.cellsPerSec, 1));
            rates.push_back(std::move(rate));
        }
        if (both)
            cells.push_back(row_speedups.empty()
                                ? "-"
                                : fmtF(geomean(row_speedups), 2) + "x");
        printRow(k, cells, 14);
    }

    std::vector<double> per_cell;
    std::vector<double> all_lat_ms;
    for (const auto &r : rates) {
        per_cell.push_back(r.cellsPerSec > 0.0 ? r.cellsPerSec : 1e-9);
        all_lat_ms.insert(all_lat_ms.end(), r.latMs.begin(),
                          r.latMs.end());
    }
    double gm = geomean(per_cell);
    // Per-cell latency distribution across the whole matrix.
    double lat_p50 = percentile(all_lat_ms, 50.0);
    double lat_p95 = percentile(all_lat_ms, 95.0);
    double lat_p99 = percentile(all_lat_ms, 99.0);

    double tick_gm = 0.0;
    if (both) {
        std::vector<double> tick_cells;
        for (const auto &r : rates)
            tick_cells.push_back(
                r.tickCellsPerSec > 0.0 ? r.tickCellsPerSec : 1e-9);
        tick_gm = geomean(tick_cells);
    }

    // The pooled pass: the whole matrix at -j, the rate a campaign
    // actually sustains on this host (primary engine).
    auto t0 = std::chrono::steady_clock::now();
    std::vector<RunRow> pooled =
        runMatrix(kernels, configs, args.iterations, primary_tweak,
                  args.threads);
    double pooled_secs =
        secondsOf(std::chrono::steady_clock::now() - t0);
    double suite_rate = pooled_secs > 0.0
                            ? static_cast<double>(pooled.size()) /
                                  pooled_secs
                            : 0.0;
    unsigned threads = args.threads == 0
                           ? ThreadPool::defaultThreads()
                           : args.threads;

    std::printf("\ngeomean serial rate : %8.1f cells/sec (%s)\n", gm,
                primary.c_str());
    std::printf("cell latency        : p50 %.1f ms, p95 %.1f ms, "
                "p99 %.1f ms (%zu samples)\n",
                lat_p50, lat_p95, lat_p99, all_lat_ms.size());
    if (both) {
        std::printf("geomean serial rate : %8.1f cells/sec (tick)\n",
                    tick_gm);
        std::printf("geomean speedup     : %8.2fx (event vs tick)\n",
                    tick_gm > 0.0 ? gm / tick_gm : 0.0);
    }
    std::printf("pooled suite rate   : %8.1f cells/sec "
                "(%zu cells, -j %u, %.2fs)\n",
                suite_rate, pooled.size(), threads, pooled_secs);

    std::string json_path =
        args.jsonPath.empty() ? "BENCH_throughput.json" : args.jsonPath;
    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        warn("cannot write %s", json_path.c_str());
    } else {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"bench_throughput\",\n"
                     "  \"iterations\": %llu,\n"
                     "  \"threads\": %u,\n"
                     "  \"engine\": \"%s\",\n"
                     "  \"host\": %s,\n"
                     "  \"geomean_cells_per_sec\": %.3f,\n",
                     static_cast<unsigned long long>(args.iterations),
                     threads, jsonEscape(args.engine).c_str(),
                     hostInfoJson().c_str(), gm);
        if (both) {
            std::fprintf(f,
                         "  \"tick_geomean_cells_per_sec\": %.3f,\n"
                         "  \"geomean_speedup\": %.3f,\n",
                         tick_gm, tick_gm > 0.0 ? gm / tick_gm : 0.0);
        }
        std::fprintf(f,
                     "  \"cell_latency_ms_p50\": %.3f,\n"
                     "  \"cell_latency_ms_p95\": %.3f,\n"
                     "  \"cell_latency_ms_p99\": %.3f,\n",
                     lat_p50, lat_p95, lat_p99);
        std::fprintf(f,
                     "  \"suite_cells_per_sec\": %.3f,\n"
                     "  \"suite_cells\": %zu,\n"
                     "  \"suite_wall_seconds\": %.3f,\n"
                     "  \"cells\": [\n",
                     suite_rate, pooled.size(), pooled_secs);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const CellRate &r = rates[i];
            std::fprintf(
                f,
                "    {\"kernel\": \"%s\", \"config\": \"%s\", "
                "\"cells_per_sec\": %.3f, "
                "\"sim_mcycles_per_sec\": %.3f, ",
                jsonEscape(r.spec.kernel).c_str(),
                jsonEscape(r.spec.config).c_str(), r.cellsPerSec,
                r.mcyclesPerSec);
            std::fprintf(f,
                         "\"lat_ms_p50\": %.3f, \"lat_ms_p95\": %.3f, "
                         "\"lat_ms_p99\": %.3f, ",
                         percentile(r.latMs, 50.0),
                         percentile(r.latMs, 95.0),
                         percentile(r.latMs, 99.0));
            if (both) {
                std::fprintf(f,
                             "\"tick_cells_per_sec\": %.3f, "
                             "\"speedup\": %.3f, ",
                             r.tickCellsPerSec,
                             r.tickCellsPerSec > 0.0
                                 ? r.cellsPerSec / r.tickCellsPerSec
                                 : 0.0);
            }
            std::fprintf(
                f,
                "\"cycles\": %llu, \"insts\": %llu, \"ok\": %s}%s\n",
                static_cast<unsigned long long>(r.result.cycles),
                static_cast<unsigned long long>(
                    r.result.committedInsts),
                r.result.halted && r.result.archMatch &&
                        r.result.error.ok() && r.enginesAgree
                    ? "true"
                    : "false",
                i + 1 < rates.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }

    int gate_rc = 0;
    if (!args.baselinePath.empty())
        gate_rc = compareBaseline(args, rates);

    // finishBench reports any failing pooled cells (and honours
    // --repro-dir); the JSON above is ours, so hide --json from it.
    BenchArgs finish = args;
    finish.jsonPath.clear();
    int rc = finishBench("bench_throughput", finish, pooled);
    if (mismatches) {
        std::fprintf(stderr,
                     "%zu cell(s) disagreed between engines\n",
                     mismatches);
        rc = rc ? rc : 1;
    }
    return rc ? rc : gate_rc;
}
