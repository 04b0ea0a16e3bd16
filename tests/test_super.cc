/**
 * @file
 * Tests for the campaign supervisor (src/super/): the worker
 * protocol, cell identity, the JSONL journal's durability semantics
 * (torn tails, bit flips, a SIGKILLed writer), wait-status
 * classification of dead children, and the acceptance scenario —
 * a campaign with a SIGKILLed cell, interrupted and resumed, must
 * produce a report bit-identical to the uninterrupted run.
 *
 * This binary has a custom main(): invoked as `test_super
 * --worker-cell` it becomes a protocol worker, so the Supervisor's
 * default /proc/self/exe worker image works inside the tests and the
 * fork/exec path under test is the real one.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/cell.hh"
#include "super/journal.hh"
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

/** Single-attempt options: classification tests must observe the
 *  first death, not a retried timeout. */
super::SupervisorOptions
noRetryOptions()
{
    super::SupervisorOptions so;
    so.jobs = 2;
    so.retry.maxAttempts = 1;
    return so;
}

// --- cell identity and serialization --------------------------------

TEST(SuperCell, JsonRoundTripPreservesIdentity)
{
    super::CellSpec cell = kernelCell(7);
    cell.programHash =
        triage::programHash(triage::buildProgram(cell.program));

    std::string doc = super::cellToJson(cell).dump();
    triage::JsonValue root;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(doc, &root, &err)) << err;

    super::CellSpec back;
    ASSERT_TRUE(super::cellFromJson(root, &back, &err)) << err;
    EXPECT_EQ(back.program.kernel, "parserish");
    EXPECT_EQ(back.program.params.iterations, 60u);
    EXPECT_EQ(back.config.rngSeed, 7u);
    EXPECT_EQ(back.maxCycles, cell.maxCycles);
    EXPECT_EQ(super::cellHash(back), super::cellHash(cell));
}

TEST(SuperCell, HashDistinguishesSeedAndBudgetButNotCrashHook)
{
    super::CellSpec a = kernelCell(1);
    super::CellSpec b = kernelCell(2);
    EXPECT_NE(super::cellHash(a), super::cellHash(b));

    super::CellSpec c = kernelCell(1);
    c.maxCycles = a.maxCycles + 1;
    EXPECT_NE(super::cellHash(a), super::cellHash(c));

    // The crash hook is test scaffolding, not identity: a cell that
    // was killed while hooked must resume under the same hash once
    // the hook is removed.
    super::CellSpec d = kernelCell(1);
    d.testCrash = "kill";
    EXPECT_EQ(super::cellHash(a), super::cellHash(d));
}

TEST(SuperCell, EmbeddedProgramRoundTrips)
{
    isa::Program prog =
        triage::buildProgram(kernelCell(1).program);
    super::CellSpec cell;
    cell.program = triage::embeddedRef("fuzz", prog, 42);
    cell.config = sim::Configs::byName("dsre");
    cell.config.rngSeed = 3;

    std::string doc = super::cellToJson(cell).dump();
    triage::JsonValue root;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(doc, &root, &err)) << err;
    super::CellSpec back;
    ASSERT_TRUE(super::cellFromJson(root, &back, &err)) << err;
    EXPECT_TRUE(back.program.hasEmbedded);
    EXPECT_EQ(back.program.params.seed, 42u);
    EXPECT_EQ(super::cellHash(back), super::cellHash(cell));
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

// --- journal durability and parsing ---------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
}

/** A distinctive final record for cell `i`. */
super::JournalRecord
recordFor(std::uint64_t i)
{
    super::JournalRecord rec;
    rec.cell = 0x1000 + i;
    rec.result.halted = true;
    rec.result.archMatch = true;
    rec.result.rngSeed = i;
    rec.result.cycles = 987654321 + i; // distinctive digits to corrupt
    return rec;
}

/** Write a journal of `n` recordFor() records and close it. */
void
writeJournal(const std::string &path, std::uint64_t n)
{
    super::Journal j;
    std::string err;
    ASSERT_TRUE(j.open(path, &err)) << err;
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(j.append(recordFor(i), &err)) << err;
    ASSERT_TRUE(j.flush(&err)) << err;
}

TEST(SuperJournal, AppendLoadRoundTripAndLastRecordWins)
{
    TempDir dir("journal");
    std::string path = dir.file("camp.journal");

    super::JournalRecord a;
    a.cell = 0xabcdef;
    a.final = false; // worker death: must be superseded on resume
    a.result.error.reason = chaos::SimError::Reason::WorkerKilled;
    a.result.rngSeed = 9;

    super::JournalRecord b;
    b.cell = 0xabcdef;
    b.final = true; // the re-execution that supersedes it
    b.result.halted = true;
    b.result.archMatch = true;
    b.result.rngSeed = 9;
    b.result.cycles = 1234;

    std::string err;
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        EXPECT_TRUE(j.loaded().empty());
        ASSERT_TRUE(j.append(a, &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }
    // A second session loads the first and appends after it.
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        ASSERT_EQ(j.loaded().size(), 1u);
        EXPECT_TRUE(super::Journal::resumeIndex(j.loaded()).empty());
        ASSERT_TRUE(j.append(b, &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }

    // The header line, then one record per line.
    std::string text = slurp(path);
    EXPECT_EQ(text.rfind("{\"format\":\"edgesim-journal\",\"version\":1,"
                         "\"build\":",
                         0),
              0u);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);

    std::vector<super::JournalRecord> recs;
    std::string build;
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_FALSE(build.empty());
    EXPECT_FALSE(recs[0].final);
    EXPECT_TRUE(recs[1].final);
    EXPECT_EQ(dump(recs[1].result), dump(b.result));

    auto index = super::Journal::resumeIndex(recs);
    ASSERT_EQ(index.size(), 1u);
    EXPECT_EQ(index.at(0xabcdef)->result.cycles, 1234u);
}

TEST(SuperJournal, DropsTornFinalLineWithAWarning)
{
    TempDir dir("torn");
    std::string path = dir.file("torn.journal");
    writeJournal(path, 3);

    // Chop bytes off the end: exactly what a crash mid-append leaves.
    std::uintmax_t size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    std::vector<super::JournalRecord> recs;
    std::string build, err;
    ::testing::internal::CaptureStderr();
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    std::string warned = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warned.find("dropping truncated final line 4"),
              std::string::npos)
        << warned;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].cell, recordFor(1).cell);

    // Reopening for append cuts the torn line off; the journal keeps
    // working and the torn record simply re-executes.
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        EXPECT_EQ(j.loaded().size(), 2u);
        ASSERT_TRUE(j.append(recordFor(2), &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(dump(recs[2].result), dump(recordFor(2).result));
}

TEST(SuperJournal, BitFlippedRecordFailsNamingItsLine)
{
    // A physically complete line with a flipped digit is corruption,
    // not a torn append: rejected naming the line, wherever it sits —
    // the final line included — never silently dropped.
    TempDir dir("crc");
    for (std::uint64_t victim : {0u, 1u, 2u}) {
        std::string path =
            dir.file("crc" + std::to_string(victim) + ".journal");
        writeJournal(path, 3);
        std::string text = slurp(path);
        std::size_t pos =
            text.find(std::to_string(987654321 + victim));
        ASSERT_NE(pos, std::string::npos);
        text[pos] = text[pos] == '1' ? '2' : '1';
        spit(path, text);

        std::vector<super::JournalRecord> recs;
        std::string build, err;
        EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
        const std::string line = std::to_string(victim + 2);
        EXPECT_NE(err.find("checksum mismatch at line " + line),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find(path), std::string::npos) << err;

        super::Journal j;
        EXPECT_FALSE(j.open(path, &err));
    }
}

TEST(SuperJournal, ChecksumlessRecordsStillLoad)
{
    // A journal written by a pre-checksum build: records carry no
    // `crc` field and must load vacuously.
    TempDir dir("nocrc");
    std::string path = dir.file("old.journal.jsonl");
    sim::RunResult r;
    r.halted = true;
    r.archMatch = true;
    r.cycles = 77;
    {
        std::ofstream f(path);
        f << "{\"format\": \"edgesim-journal\", \"version\": 1, "
             "\"build\": \"older-build\"}\n";
        f << "{\"cell\": 5, \"final\": true, \"result\": "
          << triage::resultToJson(r).dumpCompact() << "}\n";
    }

    std::vector<super::JournalRecord> recs;
    std::string build;
    std::string err;
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].cell, 5u);
    EXPECT_EQ(build, "older-build");
    EXPECT_EQ(dump(recs[0].result), dump(r));
}

TEST(SuperJournal, RecordsWithRetiredFabricFieldsStillLoad)
{
    // Older builds stamped lease provenance into each record. Unknown
    // keys are ignored, and the crc covers the whole object.
    TempDir dir("fabric");
    std::string path = dir.file("fabric.journal");
    sim::RunResult r;
    r.halted = true;
    r.archMatch = true;
    r.cycles = 4242;
    triage::JsonValue o = triage::JsonValue::object();
    o.set("cell", triage::JsonValue::u64(5));
    o.set("final", triage::JsonValue::boolean(true));
    o.set("agent", triage::JsonValue::str("host-b:2"));
    o.set("lease", triage::JsonValue::u64(17));
    o.set("attempt", triage::JsonValue::u64(2));
    o.set("audit", triage::JsonValue::str("match"));
    o.set("result", triage::resultToJson(r));
    o.set("crc", triage::JsonValue::u64(fnv1a64(o.dumpCompact())));
    spit(path, "{\"format\":\"edgesim-journal\",\"version\":1,"
               "\"build\":\"fabric-build\"}\n" +
                   o.dumpCompact() + "\n");

    std::vector<super::JournalRecord> recs;
    std::string build, err;
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].cell, 5u);
    EXPECT_EQ(dump(recs[0].result), dump(r));
}

TEST(SuperJournal, RejectsNonJournalFiles)
{
    TempDir dir("notjournal");
    std::string path = dir.file("other.jsonl");
    const std::string other =
        "{\"format\": \"something-else\", \"version\": 1}\n";
    spit(path, other);
    std::vector<super::JournalRecord> recs;
    std::string build;
    std::string err;
    EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
    EXPECT_NE(err.find("not an edgesim-journal file"), std::string::npos)
        << err;

    // open() refuses it too, and leaves the file as it was.
    super::Journal j;
    EXPECT_FALSE(j.open(path, &err));
    EXPECT_EQ(slurp(path), other);

    std::string text = dir.file("notes.txt");
    spit(text, "hello\nworld\n");
    EXPECT_FALSE(super::Journal::load(text, &recs, &build, &err));
    EXPECT_NE(err.find("not an edgesim-journal file"), std::string::npos)
        << err;
}

TEST(SuperJournal, RefusesSegmentLogDirectory)
{
    // The group-commit segment-log directory an older build wrote at
    // the journal path is outside input, not a journal: a structured
    // error naming the path, never a crash.
    TempDir dir("seglog");
    std::string path = dir.file("fuzz-seed7-n120.journal");
    std::filesystem::create_directories(path);
    spit(path + "/seg-000001.elog", std::string(64, '\0'));

    const std::string want =
        "journal '" + path +
        "': segment-log journal from an older build; start a fresh "
        "journal";
    std::vector<super::JournalRecord> recs;
    std::string build, err;
    EXPECT_FALSE(super::Journal::load(path, &recs, &build, &err));
    EXPECT_EQ(err, want);
    super::Journal j;
    EXPECT_FALSE(j.open(path, &err));
    EXPECT_EQ(err, want);
    std::string desc;
    EXPECT_FALSE(super::Journal::provenanceMismatch(path, &desc));

    // A resumed campaign stops with that error (exit 1) before any
    // cell runs.
    super::SupervisorOptions so = noRetryOptions();
    so.journalPath = path;
    so.resume = true;
    EXPECT_EXIT(
        {
            super::Supervisor sup(so);
            sup.runAll({kernelCell(1)});
        },
        ::testing::ExitedWithCode(1), "segment-log journal from an older");
}

TEST(SuperJournal, SigkilledWriterLeavesEveryEarlierRecordLoadable)
{
    // A forked child appends and syncs records until it is SIGKILLed
    // mid-campaign; the parent then tears the last line, as a kill
    // inside the write() would. Every earlier record must load, and a
    // resumed session that re-appends the rest ends with the full,
    // uninterrupted record set.
    TempDir dir("sigkill");
    const std::string path = dir.file("killed.journal");
    constexpr std::uint64_t kCells = 400;
    constexpr long kWaitLines = 40;

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        super::Journal j;
        std::string err;
        if (!j.open(path, &err))
            ::_exit(3);
        for (std::uint64_t i = 0; i < kCells; ++i)
            if (!j.append(recordFor(i), &err) || !j.flush(&err))
                ::_exit(4);
        ::pause(); // the parent's SIGKILL always ends the child
        ::_exit(0);
    }

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
        std::string text = slurp(path);
        if (std::count(text.begin(), text.end(), '\n') > kWaitLines)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(pid, SIGKILL);
    int st = 0;
    ASSERT_EQ(::waitpid(pid, &st, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL)
        << "status " << st;

    // Truncate inside the last line.
    std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    std::size_t body = text.back() == '\n' ? text.size() - 1 : text.size();
    std::size_t lastStart = text.rfind('\n', body - 1) + 1;
    ASSERT_GT(lastStart, 0u);
    std::filesystem::resize_file(path,
                                 lastStart + (body - lastStart) / 2);
    // Header + the records before the torn one.
    const auto intact = static_cast<std::uint64_t>(
        std::count(text.begin(), text.begin() + lastStart, '\n') - 1);
    ASSERT_GE(intact, static_cast<std::uint64_t>(kWaitLines - 1));

    std::vector<super::JournalRecord> recs;
    std::string build, err;
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    ASSERT_EQ(recs.size(), intact);
    for (std::uint64_t i = 0; i < intact; ++i)
        EXPECT_EQ(dump(recs[i].result), dump(recordFor(i).result))
            << "record " << i;

    // Resume: re-append exactly the missing cells.
    {
        super::Journal j;
        ASSERT_TRUE(j.open(path, &err)) << err;
        ASSERT_EQ(j.loaded().size(), intact);
        for (std::uint64_t i = intact; i < kCells; ++i)
            ASSERT_TRUE(j.append(recordFor(i), &err)) << err;
        ASSERT_TRUE(j.flush(&err)) << err;
    }
    ASSERT_TRUE(super::Journal::load(path, &recs, &build, &err))
        << err;
    auto index = super::Journal::resumeIndex(recs);
    ASSERT_EQ(index.size(), kCells);
    for (std::uint64_t i = 0; i < kCells; ++i)
        EXPECT_EQ(dump(index.at(recordFor(i).cell)->result),
                  dump(recordFor(i).result))
            << "cell " << i;
}

// --- wait-status classification of dead children --------------------

sim::RunResult
runOneSupervised(const std::string &crash_mode,
                 super::SupervisorOptions so = noRetryOptions())
{
    super::CellSpec cell = kernelCell(1);
    cell.testCrash = crash_mode;
    super::Supervisor sup(std::move(so));
    std::vector<super::CellOutcome> out = sup.runAll({cell});
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ran);
    return out[0].result;
}

TEST(SuperClassify, CleanCellMatchesInProcessRun)
{
    super::CellSpec cell = kernelCell(11);
    super::Supervisor sup(noRetryOptions());
    std::vector<super::CellOutcome> out = sup.runAll({cell});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].ran);
    EXPECT_FALSE(out[0].fromJournal);
    EXPECT_EQ(dump(out[0].result), dump(runInProcess(cell)));
    EXPECT_EQ(sup.completed(), 1u);
    EXPECT_EQ(sup.failures(), 0u);
}

TEST(SuperClassify, SegvIsWorkerCrash)
{
    sim::RunResult r = runOneSupervised("segv");
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerCrash);
    EXPECT_TRUE(chaos::isWorkerFailure(r.error.reason));
    EXPECT_FALSE(chaos::isTransient(r.error.reason));
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
    super::SupervisorOptions so = noRetryOptions();
    so.cellTimeoutMs = 300;
    sim::RunResult r = runOneSupervised("hang", so);
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerTimeout);
    EXPECT_TRUE(chaos::isTransient(r.error.reason));
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
    TempDir dir("repro");
    super::SupervisorOptions so = noRetryOptions();
    so.reproDir = dir.file("");
    super::CellSpec cell = kernelCell(1);
    cell.testCrash = "kill";
    super::Supervisor sup(std::move(so));
    std::vector<super::CellOutcome> out = sup.runAll({cell});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_FALSE(out[0].reproPath.empty());

    triage::ReproSpec spec;
    std::string err;
    ASSERT_TRUE(triage::load(out[0].reproPath, &spec, &err)) << err;
    EXPECT_EQ(spec.program.kernel, "parserish");
    EXPECT_FALSE(spec.build.empty());
}

// --- journaled campaigns: resume semantics --------------------------

TEST(SuperResume, FinalRecordsReplayWorkerDeathsReExecute)
{
    TempDir dir("resume");
    std::string journal = dir.file("grid.journal.jsonl");

    std::vector<super::CellSpec> cells = {
        kernelCell(1), kernelCell(2), kernelCell(3)};

    // The uninterrupted truth, straight from the simulator.
    std::vector<std::string> want;
    for (const super::CellSpec &c : cells)
        want.push_back(dump(runInProcess(c)));

    // First session: cell 1 is SIGKILLed mid-campaign.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        std::vector<super::CellSpec> hooked = cells;
        hooked[1].testCrash = "kill";
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(hooked);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_EQ(out[1].result.error.reason,
                  chaos::SimError::Reason::WorkerKilled);
        EXPECT_EQ(sup.failures(), 1u);
    }

    // Second session: resume. The two clean cells replay from the
    // journal; the killed cell — its record is non-final — is
    // selectively re-executed, now without the crash hook.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        so.resume = true;
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_TRUE(out[0].fromJournal);
        EXPECT_FALSE(out[1].fromJournal);
        EXPECT_TRUE(out[2].fromJournal);
        EXPECT_EQ(sup.skipped(), 2u);
        EXPECT_EQ(sup.failures(), 0u);
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
    }

    // Third session: everything is final now; nothing re-executes,
    // and the replayed results are still bit-identical.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        so.resume = true;
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 3u);
        EXPECT_EQ(sup.skipped(), 3u);
        EXPECT_EQ(sup.completed(), 0u);
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
    }
}

TEST(SuperResume, StopLeavesUnrunCellsResumable)
{
    TempDir dir("stop");
    std::string journal = dir.file("stop.journal.jsonl");
    std::vector<super::CellSpec> cells = {
        kernelCell(1), kernelCell(2), kernelCell(3), kernelCell(4)};

    std::vector<std::string> want;
    for (const super::CellSpec &c : cells)
        want.push_back(dump(runInProcess(c)));

    // A stop requested before the loop starts: nothing runs, the
    // outcome vector is complete but every cell is marked !ran.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        super::Supervisor sup(std::move(so));
        sup.requestStop();
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 4u);
        for (const super::CellOutcome &o : out)
            EXPECT_FALSE(o.ran);
        EXPECT_FALSE(sup.resumeHint().empty());
    }

    // Resume completes the whole grid bit-identically.
    {
        super::SupervisorOptions so = noRetryOptions();
        so.journalPath = journal;
        so.resume = true;
        super::Supervisor sup(std::move(so));
        std::vector<super::CellOutcome> out = sup.runAll(cells);
        ASSERT_EQ(out.size(), 4u);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_TRUE(out[i].ran);
            EXPECT_EQ(dump(out[i].result), want[i]) << "cell " << i;
        }
    }
}

TEST(SuperResume, SignalHandlerSetsGlobalStop)
{
    super::installStopHandlers();
    super::clearStopSignal();
    EXPECT_EQ(super::stopSignal(), 0);
    std::raise(SIGTERM);
    EXPECT_EQ(super::stopSignal(), SIGTERM);

    super::Supervisor sup(noRetryOptions());
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
    params.retry.maxAttempts = 1;

    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 60;
    isa::Program prog = triage::buildProgram(ref);

    sim::ChaosSweepReport inproc = sim::chaosSweep(prog, params);

    super::SupervisorOptions so = noRetryOptions();
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
    // The Supervisor's default worker image is /proc/self/exe — this
    // binary. Dispatch the worker protocol before gtest sees argv.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return edge::super::workerCellMain(std::cin, std::cout);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
