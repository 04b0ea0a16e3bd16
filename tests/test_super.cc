/**
 * @file
 * Tests for the campaign supervisor (src/super/): the worker
 * protocol, cell serialization, wait-status classification of dead
 * children, repro capture of a dead cell, cooperative stop (running
 * workers are killed and reaped), and the isolated sweep, whose
 * report must be byte-identical to the in-process one.
 *
 * This binary has a custom main(): invoked as `test_super
 * --worker-cell` it becomes a protocol worker, so the Supervisor's
 * /proc/self/exe worker image works inside the tests and the
 * fork/exec path under test is the real one.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/cell.hh"
#include "super/supervisor.hh"
#include "super/worker.hh"
#include "triage/jsonio.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"

namespace edge {
namespace {

class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(std::filesystem::temp_directory_path() /
                ("edge_super_" + name + "_" +
                 std::to_string(::getpid())))
    {
        std::filesystem::create_directories(_path);
    }
    ~TempDir() { std::filesystem::remove_all(_path); }

    std::string
    file(const std::string &name) const
    {
        return (_path / name).string();
    }

  private:
    std::filesystem::path _path;
};

/** A small, fast kernel cell: parserish under one named mechanism. */
super::CellSpec
kernelCell(std::uint64_t seed, const std::string &config_name = "dsre",
           std::uint64_t iterations = 60)
{
    super::CellSpec cell;
    cell.program.kernel = "parserish";
    cell.program.params.iterations = iterations;
    cell.config = sim::Configs::byName(config_name);
    cell.config.rngSeed = seed;
    cell.maxCycles = 200'000'000;
    return cell;
}

/** What the worker should compute for `cell`, run in-process. */
sim::RunResult
runInProcess(const super::CellSpec &cell)
{
    isa::Program prog = triage::buildProgram(cell.program);
    sim::Simulator sim(std::move(prog), cell.config);
    return sim.run(cell.config, cell.maxCycles);
}

std::string
dump(const sim::RunResult &r)
{
    return triage::resultToJson(r).dumpCompact();
}

/** Two worker processes, no cell deadline. */
super::SupervisorOptions
twoJobOptions()
{
    super::SupervisorOptions so;
    so.jobs = 2;
    return so;
}

// --- cell serialization --------------------------------------------

/** Serialize, parse back, and return the parsed cell. */
super::CellSpec
roundTrip(const super::CellSpec &cell)
{
    std::string doc = super::cellToJson(cell).dump();
    triage::JsonValue root;
    std::string err;
    EXPECT_TRUE(triage::JsonValue::parse(doc, &root, &err)) << err;
    super::CellSpec back;
    EXPECT_TRUE(super::cellFromJson(root, &back, &err)) << err;
    return back;
}

TEST(SuperCell, JsonRoundTripPreservesIdentity)
{
    super::CellSpec cell = kernelCell(7);
    super::CellSpec back = roundTrip(cell);
    EXPECT_EQ(back.program.kernel, "parserish");
    EXPECT_EQ(back.program.params.iterations, 60u);
    EXPECT_EQ(back.config.rngSeed, 7u);
    EXPECT_EQ(back.maxCycles, cell.maxCycles);
    EXPECT_EQ(super::cellToJson(back).dump(),
              super::cellToJson(cell).dump());
}

TEST(SuperCell, EmbeddedProgramRoundTrips)
{
    isa::Program prog =
        triage::buildProgram(kernelCell(1).program);
    super::CellSpec cell;
    cell.program = triage::embeddedRef("fuzz", prog, 42);
    cell.config = sim::Configs::byName("dsre");
    cell.config.rngSeed = 3;

    super::CellSpec back = roundTrip(cell);
    EXPECT_TRUE(back.program.hasEmbedded);
    EXPECT_EQ(back.program.params.seed, 42u);
    EXPECT_EQ(super::cellToJson(back).dump(),
              super::cellToJson(cell).dump());
}

// --- the worker protocol, on streams --------------------------------

TEST(SuperWorker, ProducesTheInProcessResultBitIdentically)
{
    super::CellSpec cell = kernelCell(5);
    std::istringstream in(super::cellToJson(cell).dump());
    std::ostringstream out;
    ASSERT_EQ(super::workerCellMain(in, out), 0);

    triage::JsonValue root;
    std::string err;
    std::string line = out.str();
    ASSERT_TRUE(triage::JsonValue::parse(line, &root, &err)) << err;
    // Workers of builds that had a retry policy also sent retries and
    // backoff_ms; the reader skips both.
    root.set("retries", triage::JsonValue::u64(2));
    root.set("backoff_ms", triage::JsonValue::u64(30));
    sim::RunResult r;
    ASSERT_TRUE(triage::resultFromJson(root, &r, &err)) << err;
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_EQ(dump(r), dump(runInProcess(cell)));
}

TEST(SuperWorker, RejectsMalformedSpecWithProtocolExit)
{
    std::istringstream in("{\"this is\": \"not a cell\"");
    std::ostringstream out;
    EXPECT_EQ(super::workerCellMain(in, out), 2);
    EXPECT_TRUE(out.str().empty());
}

TEST(SuperWorker, OversizedSpecIsBoundedProtocolError)
{
    // A spec stream past the bound must die with the structured
    // protocol exit while buffering, not buffer without limit.
    std::string big(super::kMaxCellSpecBytes + 4096, '{');
    std::istringstream in(big);
    std::ostringstream out;
    EXPECT_EQ(super::workerCellMain(in, out), 2);
    EXPECT_TRUE(out.str().empty());
}

// --- wait-status classification of dead children --------------------

sim::RunResult
runOneSupervised(const std::string &crash_mode,
                 super::SupervisorOptions so = twoJobOptions())
{
    super::CellSpec cell = kernelCell(1);
    cell.testCrash = crash_mode;
    super::Supervisor sup(std::move(so));
    std::vector<std::optional<sim::RunResult>> out = sup.runAll({cell});
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].has_value());
    return out[0].value_or(sim::RunResult());
}

TEST(SuperClassify, CleanCellMatchesInProcessRun)
{
    super::CellSpec cell = kernelCell(11);
    super::Supervisor sup(twoJobOptions());
    std::vector<std::optional<sim::RunResult>> out = sup.runAll({cell});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].has_value());
    EXPECT_EQ(dump(*out[0]), dump(runInProcess(cell)));
    EXPECT_EQ(sup.completed(), 1u);
    EXPECT_EQ(sup.failures(), 0u);
}

TEST(SuperClassify, SegvIsWorkerCrash)
{
    sim::RunResult r = runOneSupervised("segv");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerCrash);
}

TEST(SuperClassify, AbortIsWorkerCrash)
{
    sim::RunResult r = runOneSupervised("abort");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerCrash);
}

TEST(SuperClassify, SigkillIsWorkerKilled)
{
    sim::RunResult r = runOneSupervised("kill");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerKilled);
}

TEST(SuperClassify, HangPastDeadlineIsWorkerTimeout)
{
    super::SupervisorOptions so = twoJobOptions();
    so.cellTimeoutMs = 300;
    sim::RunResult r = runOneSupervised("hang", so);
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerTimeout);
}

TEST(SuperClassify, CleanExitWithoutResultIsWorkerProtocol)
{
    sim::RunResult r = runOneSupervised("exit3");
    EXPECT_EQ(r.error.reason,
              chaos::SimError::Reason::WorkerProtocol);
    r = runOneSupervised("garbage");
    EXPECT_EQ(r.error.reason,
              chaos::SimError::Reason::WorkerProtocol);
}

TEST(SuperClassify, WorkerDeathCapturesRepro)
{
    // The path the real callers take: the sweep's
    // captureSweepFailures and the fuzz corpus both capture a dead
    // cell's result after the supervisor returns it.
    super::CellSpec cell = kernelCell(1);
    cell.testCrash = "kill";
    super::Supervisor sup(twoJobOptions());
    std::vector<std::optional<sim::RunResult>> out = sup.runAll({cell});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].has_value());

    TempDir dir("repro");
    triage::ReproSpec captured = triage::captureFromResult(
        cell.program, cell.config, cell.maxCycles, *out[0]);
    std::string path = triage::captureToFile(captured, dir.file(""));
    ASSERT_FALSE(path.empty());

    triage::ReproSpec spec;
    std::string err;
    ASSERT_TRUE(triage::load(path, &spec, &err)) << err;
    EXPECT_EQ(spec.program.kernel, "parserish");
    EXPECT_FALSE(spec.build.empty());
    EXPECT_STREQ(chaos::reasonName(spec.error.reason), "worker-killed");
}

// --- cooperative stop -----------------------------------------------

TEST(SuperStop, StopKillsAndReapsRunningWorkers)
{
    // Four hung cells, two running: a stop from another thread must
    // kill and reap the running workers and return every cell unrun.
    // The deadline only bounds a broken stop; it turns that into a
    // failed test (ran cells) instead of a hung one.
    super::SupervisorOptions so = twoJobOptions();
    so.cellTimeoutMs = 30'000;
    std::vector<super::CellSpec> cells(4, kernelCell(1));
    for (super::CellSpec &cell : cells)
        cell.testCrash = "hang";
    super::Supervisor sup(std::move(so));

    pid_t liveBeforeStop = -1;
    std::vector<std::optional<sim::RunResult>> out;
    {
        std::jthread stopper([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            int st = 0;
            liveBeforeStop = ::waitpid(-1, &st, WNOHANG);
            sup.requestStop();
        });
        out = sup.runAll(cells);
    }

    EXPECT_EQ(liveBeforeStop, 0) << "no worker was running at the stop";
    ASSERT_EQ(out.size(), cells.size());
    for (const std::optional<sim::RunResult> &o : out)
        EXPECT_FALSE(o.has_value());
    EXPECT_EQ(sup.completed(), 0u);

    int st = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &st, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(SuperStop, SignalHandlerSetsGlobalStop)
{
    super::installStopHandlers();
    super::clearStopSignal();
    EXPECT_EQ(super::stopSignal(), 0);
    std::raise(SIGTERM);
    EXPECT_EQ(super::stopSignal(), SIGTERM);

    super::Supervisor sup(twoJobOptions());
    EXPECT_TRUE(sup.stopRequested());
    super::clearStopSignal();
    EXPECT_EQ(super::stopSignal(), 0);
}

// --- the isolated sweep twin ----------------------------------------

TEST(SuperCampaign, IsolatedSweepReportIsByteIdentical)
{
    sim::ChaosSweepParams params;
    params.seeds = {1, 2};
    params.configs = {"dsre"};
    params.maxCycles = 200'000'000;

    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 60;
    isa::Program prog = triage::buildProgram(ref);

    sim::ChaosSweepReport inproc = sim::chaosSweep(prog, params);

    super::SupervisorOptions so = twoJobOptions();
    super::Supervisor sup(std::move(so));
    bool interrupted = true;
    sim::ChaosSweepReport isolated =
        super::chaosSweepIsolated(params, ref, sup, &interrupted);

    EXPECT_FALSE(interrupted);
    ASSERT_EQ(isolated.runs.size(), inproc.runs.size());
    EXPECT_EQ(isolated.summary(), inproc.summary());
    for (std::size_t i = 0; i < inproc.runs.size(); ++i) {
        EXPECT_EQ(isolated.runs[i].seed, inproc.runs[i].seed);
        EXPECT_EQ(isolated.runs[i].config, inproc.runs[i].config);
        EXPECT_EQ(dump(isolated.runs[i].result),
                  dump(inproc.runs[i].result))
            << "cell " << i;
    }
    EXPECT_EQ(isolated.totalInjections, inproc.totalInjections);
    EXPECT_EQ(isolated.totalChecks, inproc.totalChecks);
}

} // namespace
} // namespace edge

int
main(int argc, char **argv)
{
    // The Supervisor's worker image is /proc/self/exe — this binary. Dispatch the worker protocol before gtest sees argv.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return edge::super::workerCellMain(std::cin, std::cout);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
