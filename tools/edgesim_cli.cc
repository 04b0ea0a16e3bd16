/**
 * @file
 * edgesim — command-line driver for the simulator. Runs any workload
 * kernel under any mechanism with ad-hoc parameter overrides and
 * prints the result plus (optionally) the full statistics dump.
 *
 *   edgesim --list
 *   edgesim --kernel bzip2ish --config dsre --iterations 5000
 *   edgesim --kernel twolfish --config storesets-flush \
 *           --set frames=16 --set hop=2 --set dram=200 --stats
 *   edgesim --kernel parserish --chaos-profile heavy --chaos-seed 7 \
 *           --check-invariants
 *   edgesim --kernel mcfish --chaos-profile light --chaos-sweep 20
 *   edgesim --replay failures/parserish-...-seed5.repro.json
 *
 * Recognised --set keys:
 *   frames, hop, fetch, commitports, l1dkb, l2kb, l2lat, dram,
 *   budget, seed
 *
 * Exit codes (see docs/PROTOCOL.md, "Failure triage"):
 *    0  clean run / convergent sweep / replay reproduced
 *    1  usage or configuration error
 *    2  architectural divergence (state differs from the reference)
 *    3  one or more sweep cells failed
 *    4  replay did NOT reproduce the recorded failure signature
 *   10  deadlock watchdog        11  invariant violation
 *   12  protocol panic           13  livelock
 *   15  worker crash             16  worker killed
 *   17  worker timeout           18  worker protocol
 *   14, 19-22  retired; never reused
 *   128+N  supervised campaign interrupted by signal N
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "fuzz/diff.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/worker.hh"
#include "triage/minimize.hh"
#include "triage/repro.hh"
#include "workloads/workloads.hh"

using namespace edge;

namespace {

void
usage()
{
    std::printf(
        "usage: edgesim [--list] --kernel <name> [--config <name>]\n"
        "               [--iterations N] [--seed N] [--stats]\n"
        "               [--chaos-profile <name>] [--chaos-seed N]\n"
        "               [--check-invariants] [--chaos-sweep N]\n"
        "               [--mutate <name>] [--mutate-node N]\n"
        "               [--capture-repro <dir>] [--minimize]\n"
        "               [-j N] [--set key=value ...]\n"
        "       edgesim --replay <file.repro.json> [--minimize] [-j N]\n"
        "       edgesim --fuzz N [--fuzz-seed S] [--fuzz-chaos <name>]\n"
        "               [--corpus-dir <dir>] [--minimize] [-j N]\n"
        "               [--isolate [--cell-timeout-ms N]]\n"
        "\n"
        "  --fuzz N  differential fuzzing: N random hyperblock\n"
        "         programs, each run under every mechanism and\n"
        "         cross-checked against the reference executor\n"
        "  --fuzz-seed S  base generator seed (program i uses S+i)\n"
        "  --fuzz-chaos <name>  layer a chaos profile onto every run\n"
        "  --corpus-dir <dir>  one .repro.json per unique failure\n"
        "         signature, program embedded (with --minimize, also\n"
        "         a ddmin-shrunk .min.repro.json)\n"
        "  --list-kernels  print the kernel names, one per line\n"
        "\n"
        "  -j N   run grids / minimization on N worker threads\n"
        "         (default: hardware concurrency; results are\n"
        "         bit-identical to -j 1)\n"
        "\n"
        "supervised campaigns (--chaos-sweep and --fuzz only):\n"
        "  --isolate  run every grid cell in its own child process;\n"
        "         a segfaulting/OOM-killed/hung cell becomes a\n"
        "         structured failure row, never a dead campaign\n"
        "  --cell-timeout-ms N  SIGKILL a cell past this deadline\n"
        "         (needs --isolate)\n"
        "\n"
        "  --set key=value  override one machine parameter (single-\n"
        "         kernel runs only; keys listed below)\n"
        "\n"
        "  --version  print the build provenance line\n"
        "  --capture-repro <dir>  write a .repro.json for every\n"
        "         failing run / sweep cell into <dir>\n"
        "  --replay <file>  re-run a captured failure; exits 0 iff\n"
        "         the failure signature reproduces exactly\n"
        "  --minimize  delta-debug the fault schedule of the failure\n"
        "         down to a locally minimal event set\n"
        "\n"
        "exit codes: 0 ok, 1 usage/config, 2 divergence, 3 sweep\n"
        "  failures, 4 replay mismatch, 10 watchdog, 11 invariant\n"
        "  violation, 12 protocol panic, 13 livelock, 15-18 worker\n"
        "  crash/kill/timeout/protocol (14, 19-22 retired), 128+N\n"
        "  interrupted by signal N\n"
        "\n"
        "configs: ");
    for (const auto &c : sim::Configs::allNames())
        std::printf("%s ", c.c_str());
    std::printf("\nchaos profiles: ");
    for (const auto &p : chaos::ChaosParams::profileNames())
        std::printf("%s ", p.c_str());
    std::printf("\nset keys: frames hop fetch commitports l1dkb l2kb "
                "l2lat dram budget\n");
}

void
applyOverride(core::MachineConfig &cfg, const std::string &key,
              std::uint64_t v)
{
    if (key == "frames")
        cfg.core.numFrames = static_cast<unsigned>(v);
    else if (key == "hop")
        cfg.core.hopLatency = static_cast<unsigned>(v);
    else if (key == "fetch")
        cfg.core.fetchWidth = static_cast<unsigned>(v);
    else if (key == "commitports")
        cfg.core.commitPortsPerNode = static_cast<unsigned>(v);
    else if (key == "l1dkb")
        cfg.mem.l1dSizeBytes = v * 1024;
    else if (key == "l2kb")
        cfg.mem.l2SizeBytes = v * 1024;
    else if (key == "l2lat")
        cfg.mem.l2HitLatency = static_cast<unsigned>(v);
    else if (key == "dram")
        cfg.mem.dramLatency = static_cast<unsigned>(v);
    else if (key == "budget")
        cfg.lsq.maxResendsPerLoad = static_cast<unsigned>(v);
    else
        fatal("unknown --set key '%s'", key.c_str());
}

/** The documented exit status for one finished run. */
int
runExitCode(const sim::RunResult &r)
{
    if (!r.error.ok()) {
        std::fprintf(stderr, "edgesim: %s\n",
                     chaos::reasonName(r.error.reason));
        return chaos::exitCodeFor(r.error.reason);
    }
    if (!(r.archMatch && r.halted)) {
        std::fprintf(stderr, "edgesim: divergence\n");
        return 2;
    }
    return 0;
}

void
printMinimized(const triage::MinimizeResult &m)
{
    std::printf("minimized schedule: %zu event(s) (from %zu tests, "
                "%u rounds%s):\n",
                m.schedule.size(), m.testsRun, m.rounds,
                m.converged ? "" : ", round cap hit");
    for (const chaos::FaultEvent &e : m.schedule)
        std::printf("  #%llu %s magnitude=%llu\n",
                    static_cast<unsigned long long>(e.ordinal),
                    chaos::faultSiteName(e.site),
                    static_cast<unsigned long long>(e.magnitude));
}

/**
 * Full minimization of one captured failure: program-level ddmin
 * first (for embedded programs), then the chaos-schedule ddmin on
 * the shrunk spec. Returns the minimized spec.
 */
triage::ReproSpec
minimizeSpec(const triage::ReproSpec &spec, unsigned threads)
{
    triage::MinimizeOptions mo;
    mo.threads = threads;
    triage::ReproSpec cur = spec;
    if (spec.program.hasEmbedded) {
        triage::ProgramMinimizeResult pm =
            triage::minimizeProgram(spec, mo);
        std::printf("minimized program: %zu block(s) (from %zu), "
                    "%zu effect(s) (from %zu); %zu tests, %u "
                    "rounds%s\n",
                    pm.blocksAfter, pm.blocksBefore, pm.effectsAfter,
                    pm.effectsBefore, pm.testsRun, pm.rounds,
                    pm.converged ? "" : ", round cap hit");
        cur = triage::applyProgram(cur, pm.program);
    }
    if (!cur.schedule.empty()) {
        triage::MinimizeResult sm = triage::minimizeRepro(cur, mo);
        printMinimized(sm);
        cur = triage::applySchedule(cur, sm);
    }
    return cur;
}

/** `foo.repro.json` -> `foo.min.repro.json` (or append `.min`). */
std::string
minimizedPath(const std::string &path)
{
    const std::string suffix = ".repro.json";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        return path.substr(0, path.size() - suffix.size()) +
               ".min.repro.json";
    return path + ".min";
}

int
replayMain(const std::string &path, bool minimize, unsigned threads)
{
    triage::ReproSpec spec;
    std::string err;
    if (!triage::load(path, &spec, &err))
        fatal("--replay: %s", err.c_str());

    std::printf("replaying %s\n  recorded: %s\n", path.c_str(),
                triage::signatureLine(spec).c_str());
    sim::RunResult r = triage::replay(spec);

    triage::ReproSpec observed = triage::captureFromResult(
        spec.program, spec.config, spec.maxCycles, r);
    std::printf("  observed: %s\n",
                triage::signatureLine(observed).c_str());

    bool match = triage::sameSignature(spec, r);
    std::printf("replay %s the recorded failure\n",
                match ? "reproduced" : "DID NOT reproduce");
    if (match && minimize) {
        triage::ReproSpec min_spec = minimizeSpec(spec, threads);
        std::string out = minimizedPath(path);
        if (triage::save(min_spec, out, &err))
            std::printf("minimized repro: %s\n", out.c_str());
        else
            warn("could not save minimized repro: %s", err.c_str());
    }
    return match ? 0 : 4;
}

/** Partial-campaign banner, shared by the interrupted sweep and
 *  fuzz paths. Returns the 128+signal exit status. */
int
interruptedExit(const super::Supervisor &sup)
{
    int sig = super::stopSignal() ? super::stopSignal() : SIGINT;
    std::printf("campaign interrupted (%s): %zu cell(s) completed, "
                "%zu failure(s)\n",
                strsignal(sig), sup.completed(), sup.failures());
    return 128 + sig;
}

int
fuzzMain(const fuzz::FuzzOptions &opts, bool minimize,
         unsigned threads, const super::Supervisor *sup = nullptr)
{
    fatal_if(minimize && opts.corpusDir.empty(),
             "--fuzz --minimize needs --corpus-dir (minimization "
             "starts from the captured .repro.json)");
    const std::vector<std::string> &configs =
        opts.configs.empty() ? fuzz::defaultConfigs() : opts.configs;
    std::printf("fuzz: %llu program(s) x %zu mechanism(s), base seed "
                "%llu%s\n",
                static_cast<unsigned long long>(opts.count),
                configs.size(),
                static_cast<unsigned long long>(opts.seed),
                opts.chaosProfile != chaos::Profile::None
                    ? ", chaos layered on"
                    : "");
    fuzz::FuzzReport rep = fuzz::runCampaign(opts);

    std::printf("fuzz: %llu run(s), %llu pass(es), %zu failure(s) "
                "(%llu duplicate(s)), %llu ref-hang(s)\n",
                static_cast<unsigned long long>(rep.runs),
                static_cast<unsigned long long>(rep.passes),
                rep.failures.size(),
                static_cast<unsigned long long>(rep.duplicates),
                static_cast<unsigned long long>(rep.refHangs));
    for (const fuzz::FuzzFailure &f : rep.failures) {
        if (!f.unique)
            continue;
        std::printf("  seed %llu / %s: %s [%s]\n",
                    static_cast<unsigned long long>(f.seed),
                    f.config.c_str(), fuzz::outcomeName(f.outcome),
                    f.signature.c_str());
        if (f.reproPath.empty())
            continue;
        std::printf("  to reproduce: edgesim --replay %s\n",
                    f.reproPath.c_str());
        if (minimize && f.outcome != fuzz::Outcome::RefHang) {
            triage::ReproSpec spec;
            std::string err;
            if (!triage::load(f.reproPath, &spec, &err)) {
                warn("cannot minimize %s: %s", f.reproPath.c_str(),
                     err.c_str());
                continue;
            }
            triage::ReproSpec min_spec = minimizeSpec(spec, threads);
            std::string out = minimizedPath(f.reproPath);
            if (triage::save(min_spec, out, &err))
                std::printf("  minimized repro: %s\n", out.c_str());
            else
                warn("could not save minimized repro: %s",
                     err.c_str());
        }
    }
    if (rep.interrupted && sup)
        return interruptedExit(*sup);
    if (rep.clean())
        std::printf("fuzz: all mechanisms agree with the reference\n");
    return rep.clean() ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // The worker half of the supervised-campaign protocol: re-entered
    // via fork/exec of /proc/self/exe. Dispatch before any other
    // argument handling — the spec arrives on stdin, the result
    // leaves on stdout, and nothing else may write there.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return super::workerCellMain(std::cin, std::cout);

    std::string kernel;
    std::string config = "dsre";
    wl::KernelParams kp;
    bool dump_stats = false;
    std::uint64_t run_seed = 1;
    std::uint64_t chaos_seed = 0;
    chaos::Profile chaos_profile = chaos::Profile::None;
    bool check_invariants = false;
    std::uint64_t sweep_seeds = 0;
    unsigned threads = 0;
    chaos::Mutation mutation = chaos::Mutation::None;
    unsigned mutation_node = 0;
    std::string repro_dir;
    std::string replay_path;
    bool minimize = false;
    std::uint64_t fuzz_count = 0;
    std::uint64_t fuzz_seed = 1;
    std::string corpus_dir;
    bool isolate = false;
    std::uint64_t cell_timeout_ms = 0;
    std::vector<std::pair<std::string, std::uint64_t>> overrides;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s needs an argument",
                     arg.c_str());
            return argv[++i];
        };
        auto nextU64 = [&](std::uint64_t max = UINT64_MAX) {
            return parseU64(arg, next(), max);
        };
        if (arg == "--list") {
            std::printf("%-12s %-12s %s\n", "kernel", "models",
                        "behaviour");
            for (const auto &info : wl::kernels())
                std::printf("%-12s %-12s %s\n", info.name.c_str(),
                            info.specAnalog.c_str(),
                            info.description.c_str());
            return 0;
        } else if (arg == "--list-kernels") {
            for (const auto &name : wl::kernelNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--kernel") {
            kernel = next();
        } else if (arg == "--fuzz") {
            fuzz_count = nextU64();
        } else if (arg == "--fuzz-seed") {
            fuzz_seed = nextU64();
        } else if (arg == "--fuzz-chaos") {
            chaos_profile = chaos::ChaosParams::profileByName(next());
        } else if (arg == "--corpus-dir") {
            corpus_dir = next();
        } else if (arg == "--config") {
            config = next();
        } else if (arg == "--iterations") {
            kp.iterations = nextU64();
        } else if (arg == "--seed") {
            // One run-level seed: the workload generator and (unless
            // --chaos-seed overrides) the fault schedule derive from
            // it.
            run_seed = nextU64();
            kp.seed = run_seed;
        } else if (arg == "--chaos-seed") {
            chaos_seed = nextU64();
        } else if (arg == "--chaos-profile") {
            chaos_profile = chaos::ChaosParams::profileByName(next());
        } else if (arg == "--check-invariants") {
            check_invariants = true;
        } else if (arg == "--chaos-sweep") {
            sweep_seeds = nextU64();
        } else if (arg == "--mutate") {
            mutation = chaos::mutationByName(next());
#ifndef EDGE_MUTATIONS
            fatal_if(mutation != chaos::Mutation::None,
                     "--mutate requires a build with EDGE_MUTATIONS=ON");
#endif
        } else if (arg == "--mutate-node") {
            mutation_node = static_cast<unsigned>(nextU64(UINT_MAX));
        } else if (arg == "--capture-repro") {
            repro_dir = next();
        } else if (arg == "--isolate") {
            isolate = true;
        } else if (arg == "--cell-timeout-ms") {
            cell_timeout_ms = nextU64();
        } else if (arg == "--version") {
            std::printf("edgesim %s\n", buildInfoLine().c_str());
            return 0;
        } else if (arg == "--replay") {
            replay_path = next();
        } else if (arg == "--minimize") {
            minimize = true;
        } else if (arg == "-j") {
            threads = static_cast<unsigned>(nextU64(UINT_MAX));
        } else if (arg.size() > 2 && arg.compare(0, 2, "-j") == 0) {
            threads = static_cast<unsigned>(
                parseU64("-j", arg.substr(2), UINT_MAX));
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--set") {
            std::string kv = next();
            auto eq = kv.find('=');
            fatal_if(eq == std::string::npos,
                     "--set expects key=value");
            const std::string key = kv.substr(0, eq);
            overrides.emplace_back(
                key, parseU64("--set " + key, kv.substr(eq + 1),
                              UINT_MAX));
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '%s'", arg.c_str());
        }
    }

    // Refuse a flag the selected mode would silently drop.
    const bool replay = !replay_path.empty();
    const bool campaign = !replay && (fuzz_count > 0 || sweep_seeds > 0);
    const char *mode = replay            ? "--replay"
                       : fuzz_count > 0  ? "--fuzz"
                       : sweep_seeds > 0 ? "--chaos-sweep"
                                         : "a single-kernel run";
    fatal_if(isolate && !campaign,
             "--isolate is read only by --chaos-sweep and --fuzz, not "
             "by %s", mode);
    fatal_if(cell_timeout_ms != 0 && !isolate,
             "--cell-timeout-ms is read only with --isolate (on "
             "--chaos-sweep or --fuzz)");
    fatal_if(!overrides.empty() && (replay || campaign),
             "--set is read only by a single-kernel run, not by %s",
             mode);

    if (replay)
        return replayMain(replay_path, minimize, threads);

    // Shared supervisor setup for the --isolate campaign paths.
    super::SupervisorOptions so;
    so.jobs = threads;
    so.cellTimeoutMs = cell_timeout_ms;

    if (fuzz_count > 0) {
        fuzz::FuzzOptions fo;
        fo.count = fuzz_count;
        fo.seed = fuzz_seed;
        fo.chaosProfile = chaos_profile;
        fo.mutation = mutation;
        fo.mutationNode = mutation_node;
        fo.checkInvariants = check_invariants;
        fo.threads = threads;
        fo.corpusDir = corpus_dir;
        if (isolate) {
            super::installStopHandlers();
            super::Supervisor sup(so);
            fo.batchRunner = super::fuzzBatchRunner(sup);
            return fuzzMain(fo, minimize, threads, &sup);
        }
        return fuzzMain(fo, minimize, threads);
    }

    if (kernel.empty()) {
        usage();
        return 1;
    }
    if (!wl::exists(kernel)) {
        std::fprintf(stderr,
                     "edgesim: unknown kernel '%s'; valid kernels:\n",
                     kernel.c_str());
        for (const auto &name : wl::kernelNames())
            std::fprintf(stderr, "  %s\n", name.c_str());
        return 2;
    }

    core::MachineConfig cfg = sim::Configs::byName(config);
    for (const auto &[k, v] : overrides)
        applyOverride(cfg, k, v);
    cfg.rngSeed = run_seed;
    cfg.chaos = chaos::ChaosParams::byProfile(chaos_profile, chaos_seed);
    cfg.chaos.mutation = mutation;
    cfg.chaos.mutationNode = mutation_node;
    cfg.checkInvariants = check_invariants;

    triage::ProgramRef prog_ref{kernel, kp};

    if (sweep_seeds > 0) {
        sim::ChaosSweepParams sp;
        for (std::uint64_t s = 0; s < sweep_seeds; ++s)
            sp.seeds.push_back(run_seed + s);
        sp.configs = {config};
        sp.profile = chaos_profile == chaos::Profile::None
                         ? chaos::Profile::Light
                         : chaos_profile;
        sp.threads = threads;
        sp.mutation = mutation;
        sp.mutationNode = mutation_node;
        if (isolate) {
            super::installStopHandlers();
            super::Supervisor sup(so);
            bool interrupted = false;
            sim::ChaosSweepReport rep = super::chaosSweepIsolated(
                sp, prog_ref, sup, &interrupted);
            if (!repro_dir.empty())
                triage::captureSweepFailures(rep, prog_ref,
                                             sp.maxCycles, repro_dir);
            // Same banner as the in-process path on purpose: an
            // uninterrupted --isolate sweep's stdout is byte-
            // identical to the default one.
            std::printf("%s / %s chaos sweep (%s):\n%s",
                        kernel.c_str(), config.c_str(),
                        chaos::profileName(sp.profile),
                        rep.summary().c_str());
            if (interrupted)
                return interruptedExit(sup);
            return rep.allConverged() ? 0 : 3;
        }
        isa::Program prog = wl::build(kernel, kp);
        sim::ChaosSweepReport rep = sim::chaosSweep(prog, sp);
        if (!repro_dir.empty())
            triage::captureSweepFailures(rep, prog_ref, sp.maxCycles,
                                         repro_dir);
        std::printf("%s / %s chaos sweep (%s):\n%s", kernel.c_str(),
                    config.c_str(), chaos::profileName(sp.profile),
                    rep.summary().c_str());
        return rep.allConverged() ? 0 : 3;
    }

    sim::Simulator sim(wl::build(kernel, kp), cfg);
    sim::RunResult r = sim.run();

    std::printf("%s / %s: %llu cycles, %llu insts, IPC %.3f\n",
                kernel.c_str(), config.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.committedInsts),
                r.ipc());
    std::printf("violations %llu, flushes %llu (+%llu ctrl), "
                "resends %llu, upgrades %llu, holds %llu\n",
                static_cast<unsigned long long>(r.violations),
                static_cast<unsigned long long>(r.violFlushes),
                static_cast<unsigned long long>(r.ctrlFlushes),
                static_cast<unsigned long long>(r.resends),
                static_cast<unsigned long long>(r.upgrades),
                static_cast<unsigned long long>(r.policyHolds));
    if (r.chaosSeed || r.injections.total() || r.invariantChecks) {
        std::printf(
            "chaos seed %llu: %llu injections (%llu hop, %llu dup, "
            "%llu mem, %llu store, %llu spurious); %llu invariant "
            "checks\n",
            static_cast<unsigned long long>(r.chaosSeed),
            static_cast<unsigned long long>(r.injections.total()),
            static_cast<unsigned long long>(r.injections.hopDelays),
            static_cast<unsigned long long>(r.injections.duplicates),
            static_cast<unsigned long long>(r.injections.memJitters),
            static_cast<unsigned long long>(r.injections.storeDelays),
            static_cast<unsigned long long>(
                r.injections.spuriousWaves),
            static_cast<unsigned long long>(r.invariantChecks));
    }
    std::printf("architectural state verified against the reference: "
                "%s\n",
                r.archMatch ? "PASS" : "FAIL");
    if (!r.error.ok())
        std::printf("run failed gracefully:\n%s\n",
                    r.error.format().c_str());
    if (dump_stats)
        std::printf("\n%s", sim.stats().dump().c_str());

    bool failed = !r.error.ok() || !(r.archMatch && r.halted);
    if (failed && !repro_dir.empty()) {
        triage::ReproSpec spec =
            triage::captureFromResult(prog_ref, cfg, 500'000'000, r);
        std::string path = triage::captureToFile(spec, repro_dir);
        if (!path.empty()) {
            std::printf("to reproduce: edgesim --replay %s\n",
                        path.c_str());
            if (minimize) {
                triage::MinimizeOptions mo;
                mo.threads = threads;
                printMinimized(triage::minimizeRepro(spec, mo));
            }
        }
    }
    return runExitCode(r);
}
