/**
 * @file
 * Failure-triage tests: repro capture of failing chaos-sweep cells
 * and bit-identical replay, ddmin schedule minimization (synthetic
 * predicate and end-to-end on a real failure), and quarantine keeping
 * a grid green. The heavyweight planted-failure cases reuse the
 * mutation machinery, so most of this file is gated on EDGE_MUTATIONS
 * like the mutation tests.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "sim/run_pool.hh"
#include "sim/sweep.hh"
#include "triage/jsonio.hh"
#include "triage/minimize.hh"
#include "triage/repro.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

/** Fresh scratch directory under the test's working dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(std::filesystem::temp_directory_path() /
                ("edgesim-triage-" + name))
    {
        std::filesystem::remove_all(_path);
        std::filesystem::create_directories(_path);
    }

    ~TempDir() { std::filesystem::remove_all(_path); }

    std::string str() const { return _path.string(); }

  private:
    std::filesystem::path _path;
};

// ---------------------------------------------------------------------
// JSON round trips.
// ---------------------------------------------------------------------

TEST(TriageJson, ScalarAndContainerRoundTrip)
{
    triage::JsonValue root = triage::JsonValue::object();
    root.set("u", triage::JsonValue::u64(0xffffffffffffffffULL));
    root.set("i", triage::JsonValue::i64(-42));
    root.set("b", triage::JsonValue::boolean(true));
    root.set("s", triage::JsonValue::str("line\n\"quoted\"\ttab"));
    triage::JsonValue arr = triage::JsonValue::array();
    arr.push(triage::JsonValue::u64(1));
    arr.push(triage::JsonValue::str("two"));
    root.set("a", std::move(arr));

    triage::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(
        triage::JsonValue::parse(root.dump(), &parsed, &err)) << err;
    // The max uint64 is the value a double-backed parser would lose.
    EXPECT_EQ(parsed.getU64("u"), 0xffffffffffffffffULL);
    EXPECT_EQ(parsed.get("i")->asI64(), -42);
    EXPECT_TRUE(parsed.getBool("b"));
    EXPECT_EQ(parsed.getString("s"), "line\n\"quoted\"\ttab");
    ASSERT_NE(parsed.get("a"), nullptr);
    EXPECT_EQ(parsed.get("a")->items().size(), 2u);
    EXPECT_EQ(parsed.get("a")->items()[0].asU64(), 1u);
}

TEST(TriageJson, MalformedInputIsRejectedWithPosition)
{
    triage::JsonValue out;
    std::string err;
    EXPECT_FALSE(triage::JsonValue::parse("{\"a\": }", &out, &err));
    EXPECT_NE(err.find("offset"), std::string::npos);
    EXPECT_FALSE(triage::JsonValue::parse("[1, 2", &out, &err));
    EXPECT_FALSE(triage::JsonValue::parse("{} trailing", &out, &err));
}

TEST(TriageRepro, SpecSurvivesSaveAndLoad)
{
    triage::ReproSpec spec;
    spec.program.kernel = "parserish";
    spec.program.params.iterations = 150;
    spec.program.params.seed = 5;
    spec.programHash = 0xdeadbeefcafef00dULL;
    spec.config = sim::Configs::storeSetsDsre();
    spec.config.rngSeed = 5;
    spec.config.chaos =
        chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
    spec.config.chaos.filterSchedule = true;
    spec.config.chaos.allowedEvents = {3, 17, 99};
    spec.maxCycles = 777'777;
    spec.error.reason = chaos::SimError::Reason::InvariantViolation;
    spec.error.invariant = "value-identity-squash";
    spec.error.message = "node 7 re-sent an identical (value, state)";
    spec.error.cycle = 4242;
    spec.error.seq = 12;
    spec.error.node = 7;
    spec.error.trace = {"cycle 1 deliver", "cycle 2 send"};
    spec.halted = false;
    spec.archMatch = false;
    chaos::FaultEvent ev;
    ev.ordinal = 9;
    ev.site = chaos::FaultEvent::Site::Spurious;
    ev.magnitude = 0;
    spec.schedule.push_back(ev);

    TempDir dir("roundtrip");
    std::string path = dir.str() + "/spec.repro.json";
    std::string err;
    ASSERT_TRUE(triage::save(spec, path, &err)) << err;

    triage::ReproSpec back;
    ASSERT_TRUE(triage::load(path, &back, &err)) << err;
    EXPECT_EQ(back.program.kernel, "parserish");
    EXPECT_EQ(back.program.params.iterations, 150u);
    EXPECT_EQ(back.program.params.seed, 5u);
    EXPECT_EQ(back.programHash, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(back.config.policy, pred::DepPolicy::StoreSets);
    EXPECT_EQ(back.config.lsq.recovery, lsq::Recovery::Dsre);
    EXPECT_EQ(back.config.rngSeed, 5u);
    EXPECT_EQ(back.config.chaos.profile, chaos::Profile::Lsq);
    EXPECT_TRUE(back.config.chaos.filterSchedule);
    EXPECT_EQ(back.config.chaos.allowedEvents,
              (std::vector<std::uint64_t>{3, 17, 99}));
    EXPECT_EQ(back.maxCycles, 777'777u);
    EXPECT_EQ(back.error.reason,
              chaos::SimError::Reason::InvariantViolation);
    EXPECT_EQ(back.error.invariant, "value-identity-squash");
    EXPECT_EQ(back.error.cycle, 4242u);
    EXPECT_EQ(back.error.node, 7u);
    EXPECT_EQ(back.error.trace.size(), 2u);
    ASSERT_EQ(back.schedule.size(), 1u);
    EXPECT_EQ(back.schedule[0], ev);

    // Files written by builds that still had a host deadline and a
    // retry policy carry config.wall_deadline_ms and the failure's
    // retries/backoff_ms. Readers skip those keys: such a file loads
    // to the same spec and replays.
    spec.programHash = triage::programHash(triage::buildProgram(spec.program));
    triage::JsonValue legacy = triage::toJson(spec);
    triage::JsonValue cfg = *legacy.get("config");
    cfg.set("wall_deadline_ms", triage::JsonValue::u64(1234));
    legacy.set("config", std::move(cfg));
    triage::JsonValue failure = *legacy.get("failure");
    failure.set("retries", triage::JsonValue::u64(2));
    failure.set("backoff_ms", triage::JsonValue::u64(30));
    legacy.set("failure", std::move(failure));
    std::string legacy_path = dir.str() + "/legacy.repro.json";
    {
        std::ofstream out(legacy_path);
        out << legacy.dump();
    }
    triage::ReproSpec old;
    ASSERT_TRUE(triage::load(legacy_path, &old, &err)) << err;
    EXPECT_EQ(triage::toJson(old).dump(), triage::toJson(spec).dump());
    sim::RunResult replayed = triage::replay(old);
    EXPECT_TRUE(replayed.halted && replayed.archMatch)
        << replayed.error.format();
}

TEST(TriageRepro, ProgramHashTracksContent)
{
    wl::KernelParams kp;
    kp.iterations = 50;
    std::uint64_t a = triage::programHash(wl::build("gzipish", kp));
    std::uint64_t b = triage::programHash(wl::build("gzipish", kp));
    EXPECT_EQ(a, b);
    kp.seed = 2;
    std::uint64_t c = triage::programHash(wl::build("gzipish", kp));
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// Exit-code mapping.
// ---------------------------------------------------------------------

TEST(TriageExitCodes, DistinctPerReasonAndDocumented)
{
    using Reason = chaos::SimError::Reason;
    EXPECT_EQ(chaos::exitCodeFor(Reason::None), 0);
    EXPECT_EQ(chaos::exitCodeFor(Reason::Watchdog), 10);
    EXPECT_EQ(chaos::exitCodeFor(Reason::InvariantViolation), 11);
    EXPECT_EQ(chaos::exitCodeFor(Reason::ProtocolPanic), 12);
    EXPECT_EQ(chaos::exitCodeFor(Reason::Livelock), 13);

    std::set<int> codes;
    for (Reason r : {Reason::None, Reason::Watchdog,
                     Reason::InvariantViolation, Reason::ProtocolPanic,
                     Reason::Livelock}) {
        codes.insert(chaos::exitCodeFor(r));
        EXPECT_EQ(chaos::reasonByName(chaos::reasonName(r)), r);
    }
    EXPECT_EQ(codes.size(), 5u);
}

// ---------------------------------------------------------------------
// ddmin on a synthetic predicate: 5 planted events, failure iff
// {1, 3} is a subset — must converge to exactly {1, 3}.
// ---------------------------------------------------------------------

TEST(TriageMinimize, SyntheticPredicateConvergesToPlantedPair)
{
    std::vector<chaos::FaultEvent> schedule;
    for (std::uint64_t i = 0; i < 5; ++i) {
        chaos::FaultEvent ev;
        ev.ordinal = i;
        ev.site = chaos::FaultEvent::Site::HopDelay;
        ev.magnitude = i + 1;
        schedule.push_back(ev);
    }
    triage::SubsetTest fails_with_1_and_3 =
        [](const std::vector<std::uint64_t> &subset) {
            bool has1 = false, has3 = false;
            for (std::uint64_t o : subset) {
                has1 = has1 || o == 1;
                has3 = has3 || o == 3;
            }
            return has1 && has3;
        };

    triage::MinimizeResult m =
        triage::minimizeSchedule(schedule, fails_with_1_and_3);
    EXPECT_TRUE(m.converged);
    EXPECT_EQ(m.ordinals, (std::vector<std::uint64_t>{1, 3}));
    ASSERT_EQ(m.schedule.size(), 2u);
    EXPECT_EQ(m.schedule[0].ordinal, 1u);
    EXPECT_EQ(m.schedule[1].ordinal, 3u);
    EXPECT_GT(m.testsRun, 0u);
}

TEST(TriageMinimize, ScheduleIndependentFailureMinimizesToEmpty)
{
    std::vector<chaos::FaultEvent> schedule;
    for (std::uint64_t i = 0; i < 4; ++i) {
        chaos::FaultEvent ev;
        ev.ordinal = i;
        schedule.push_back(ev);
    }
    triage::SubsetTest always_fails =
        [](const std::vector<std::uint64_t> &) { return true; };
    triage::MinimizeResult m =
        triage::minimizeSchedule(schedule, always_fails);
    EXPECT_TRUE(m.converged);
    EXPECT_TRUE(m.ordinals.empty());
    // Two probes (empty set + full set) settle it.
    EXPECT_EQ(m.testsRun, 2u);
}

TEST(TriageMinimize, DeterministicAcrossThreadCounts)
{
    std::vector<chaos::FaultEvent> schedule;
    for (std::uint64_t i = 0; i < 12; ++i) {
        chaos::FaultEvent ev;
        ev.ordinal = i;
        schedule.push_back(ev);
    }
    // Failure iff at least two of {2, 5, 9} survive: several minimal
    // sets exist, so only a deterministic reduction path makes the
    // answer thread-count-independent.
    triage::SubsetTest two_of_three =
        [](const std::vector<std::uint64_t> &subset) {
            unsigned hits = 0;
            for (std::uint64_t o : subset)
                hits += (o == 2 || o == 5 || o == 9) ? 1 : 0;
            return hits >= 2;
        };
    triage::MinimizeOptions serial;
    serial.threads = 1;
    triage::MinimizeOptions wide;
    wide.threads = 8;
    triage::MinimizeResult a =
        triage::minimizeSchedule(schedule, two_of_three, serial);
    triage::MinimizeResult b =
        triage::minimizeSchedule(schedule, two_of_three, wide);
    EXPECT_TRUE(a.converged);
    EXPECT_EQ(a.ordinals, b.ordinals);
    EXPECT_EQ(a.ordinals.size(), 2u);
}

#ifdef EDGE_MUTATIONS

/** The planted deterministic failure every triage test drives:
 *  SkipSquash under the lsq chaos profile at seed 5, which the
 *  invariant checker reports as value-identity-squash. */
sim::ChaosSweepParams
plantedSweep(unsigned threads)
{
    sim::ChaosSweepParams sp;
    sp.seeds = {5};
    sp.configs = {"dsre"};
    sp.profile = chaos::Profile::Lsq;
    sp.checkInvariants = true;
    sp.threads = threads;
    sp.mutation = chaos::Mutation::SkipSquash;
    sp.mutationNode = ~0u;
    return sp;
}

triage::ProgramRef
plantedProgram()
{
    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 150;
    ref.params.seed = 1;
    return ref;
}

// ---------------------------------------------------------------------
// The acceptance flow: a planted mutation failure captured from a
// -j 8 sweep replays bit-identically at -j 1 (same error kind, same
// invariant rule, same failure cycle).
// ---------------------------------------------------------------------

TEST(TriageReplay, CapturedParallelSweepFailureReplaysBitIdentically)
{
    triage::ProgramRef ref = plantedProgram();
    isa::Program prog = triage::buildProgram(ref);
    sim::ChaosSweepParams sp = plantedSweep(/*threads=*/8);
    sim::ChaosSweepReport rep = sim::chaosSweep(prog, sp);
    ASSERT_FALSE(rep.allConverged());

    TempDir dir("replay");
    std::size_t written = triage::captureSweepFailures(
        rep, ref, sp.maxCycles, dir.str());
    ASSERT_EQ(written, rep.failures);

    for (const sim::ChaosSweepOutcome &o : rep.runs) {
        if (o.converged())
            continue;
        ASSERT_FALSE(o.reproPath.empty());
        EXPECT_NE(rep.summary().find(o.reproPath), std::string::npos)
            << "summary must print the replay command";

        triage::ReproSpec spec;
        std::string err;
        ASSERT_TRUE(triage::load(o.reproPath, &spec, &err)) << err;
        EXPECT_EQ(spec.error.reason,
                  chaos::SimError::Reason::InvariantViolation);
        EXPECT_EQ(spec.error.invariant, "value-identity-squash");
        EXPECT_FALSE(spec.schedule.empty())
            << "the fault schedule is the minimizer's universe";

        // The serial replay IS the -j 1 leg: one run, one thread.
        sim::RunResult replayed = triage::replay(spec);
        EXPECT_EQ(replayed.error.reason, o.result.error.reason);
        EXPECT_EQ(replayed.error.invariant, o.result.error.invariant);
        EXPECT_EQ(replayed.error.cycle, o.result.error.cycle);
        EXPECT_TRUE(triage::sameSignature(spec, replayed));
    }
}

// ---------------------------------------------------------------------
// End-to-end minimization of the real planted failure: the schedule
// must shrink to <= 2 events that still fail with the same invariant,
// and masking everything must make the run pass.
// ---------------------------------------------------------------------

TEST(TriageMinimize, RealFailureScheduleShrinksToAtMostTwoEvents)
{
    triage::ProgramRef ref = plantedProgram();
    isa::Program prog = triage::buildProgram(ref);
    sim::ChaosSweepParams sp = plantedSweep(/*threads=*/4);
    sim::ChaosSweepReport rep = sim::chaosSweep(prog, sp);
    ASSERT_FALSE(rep.allConverged());

    TempDir dir("minimize");
    triage::captureSweepFailures(rep, ref, sp.maxCycles, dir.str());
    const sim::ChaosSweepOutcome *failing = nullptr;
    for (const sim::ChaosSweepOutcome &o : rep.runs)
        if (!o.converged())
            failing = &o;
    ASSERT_NE(failing, nullptr);

    triage::ReproSpec spec;
    std::string err;
    ASSERT_TRUE(triage::load(failing->reproPath, &spec, &err)) << err;
    ASSERT_GE(spec.schedule.size(), 5u)
        << "the planted failure should offer a non-trivial schedule";

    triage::MinimizeOptions mo;
    mo.threads = 4;
    triage::MinimizeResult m = triage::minimizeRepro(spec, mo);
    EXPECT_TRUE(m.converged);
    EXPECT_LE(m.schedule.size(), 2u);
    EXPECT_GE(m.schedule.size(), 1u)
        << "SkipSquash only fires on injected spurious waves, so an "
           "empty schedule must pass";

    // The minimized schedule still reproduces the failure kind...
    triage::ReproSpec minimized = triage::applySchedule(spec, m);
    sim::RunResult with_min = triage::replay(minimized);
    EXPECT_TRUE(triage::sameFailureKind(spec, with_min));

    // ...and the empty schedule does not (the faults were necessary).
    triage::ReproSpec none = spec;
    none.config.chaos.filterSchedule = true;
    none.config.chaos.allowedEvents.clear();
    sim::RunResult with_none = triage::replay(none);
    EXPECT_FALSE(triage::sameFailureKind(spec, with_none));
}

// ---------------------------------------------------------------------
// Quarantine: a grid with one deterministically failing cell reports
// it and keeps every other cell's result (satellite f).
// ---------------------------------------------------------------------

TEST(TriageQuarantine, FailingCellDoesNotPoisonTheGrid)
{
    bench::RunSpec bad;
    bad.kernel = "parserish";
    bad.config = "dsre";
    bad.iterations = 150;
    bad.seed = 1;
    bad.tweak = [](core::MachineConfig &cfg) {
        cfg.rngSeed = 5;
        cfg.chaos =
            chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
        cfg.chaos.mutation = chaos::Mutation::SkipSquash;
        cfg.chaos.mutationNode = ~0u;
        cfg.checkInvariants = true;
    };
    bench::RunSpec good;
    good.kernel = "gzipish";
    good.config = "dsre";
    good.iterations = 60;

    std::vector<bench::RunRow> rows =
        bench::runSpecs({bad, good}, /*threads=*/4);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_FALSE(rows[0].ok());
    EXPECT_TRUE(rows[1].ok()) << rows[1].failure();

    // finishBench captures the repro, reports the failure, and exits
    // nonzero — without losing the good cell.
    TempDir dir("quarantine");
    bench::BenchArgs args;
    args.start = std::chrono::steady_clock::now();
    args.reproDir = dir.str();
    args.jsonPath = dir.str() + "/bench.json";
    EXPECT_EQ(bench::finishBench("test_triage", args, rows), 1);
    EXPECT_FALSE(rows[0].reproPath.empty());
    EXPECT_TRUE(std::filesystem::exists(rows[0].reproPath));
    EXPECT_TRUE(rows[1].reproPath.empty());

    // The JSON report carries the repro path and the failed-cell
    // tally.
    std::ifstream in(args.jsonPath);
    std::stringstream buf;
    buf << in.rdbuf();
    triage::JsonValue json;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(buf.str(), &json, &err))
        << err;
    EXPECT_EQ(json.getU64("failed"), 1u);
    const triage::JsonValue *cells = json.get("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->items().size(), 2u);
    EXPECT_EQ(cells->items()[0].getString("repro"),
              rows[0].reproPath);
    EXPECT_FALSE(cells->items()[0].getBool("ok"));
    EXPECT_TRUE(cells->items()[1].getBool("ok"));
    // Each cell's counts, and the `"insts": N` spelling that
    // perfbench's paper-repro scan of these files depends on.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const sim::RunResult &r = rows[i].result;
        EXPECT_EQ(cells->items()[i].getU64("insts"), r.committedInsts);
        EXPECT_EQ(cells->items()[i].getU64("cycles"), r.cycles);
        EXPECT_NE(buf.str().find("\"insts\": " +
                                 std::to_string(r.committedInsts)),
                  std::string::npos);
    }
    EXPECT_GT(rows[1].result.committedInsts, 0u);

    // The captured repro replays to the same deterministic failure.
    triage::ReproSpec spec;
    ASSERT_TRUE(triage::load(rows[0].reproPath, &spec, &err)) << err;
    sim::RunResult replayed = triage::replay(spec);
    EXPECT_TRUE(triage::sameSignature(spec, replayed));
}

#endif // EDGE_MUTATIONS

} // namespace
} // namespace edge
