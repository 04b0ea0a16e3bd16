#include "triage/repro.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "lsq/lsq.hh"
#include "predictor/dependence.hh"
#include "triage/program_json.hh"
#include "triage/result_json.hh"

namespace edge::triage {

namespace {

/** Filename-safe slug: [a-z0-9-] only. */
std::string
slug(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "x" : out;
}

} // namespace

std::uint64_t
programHash(const isa::Program &program)
{
    Fnv1a f;
    f.mix(program.name());
    f.mix(program.disassemble());
    for (Word w : program.initRegs())
        f.mix64(w);
    for (const isa::MemInit &chunk : program.memImage()) {
        f.mix64(chunk.base);
        f.mix(chunk.bytes.data(), chunk.bytes.size());
    }
    return f.state;
}

ProgramRef
embeddedRef(std::string label, isa::Program program,
            std::uint64_t generator_seed)
{
    ProgramRef ref;
    ref.kernel = std::move(label);
    ref.params.iterations = 0;
    ref.params.seed = generator_seed;
    ref.hasEmbedded = true;
    ref.embedded = std::move(program);
    return ref;
}

isa::Program
buildProgram(const ProgramRef &ref)
{
    if (ref.hasEmbedded)
        return ref.embedded;
    return wl::build(ref.kernel, ref.params);
}

JsonValue
toJson(const ReproSpec &spec)
{
    JsonValue root = JsonValue::object();
    root.set("format", JsonValue::str("edgesim-repro"));
    root.set("version", JsonValue::u64(1));

    JsonValue prog = JsonValue::object();
    prog.set("kernel", JsonValue::str(spec.program.kernel));
    prog.set("iterations", JsonValue::u64(spec.program.params.iterations));
    prog.set("seed", JsonValue::u64(spec.program.params.seed));
    prog.set("hash", JsonValue::u64(spec.programHash));
    if (spec.program.hasEmbedded)
        prog.set("embedded", programToJson(spec.program.embedded));
    root.set("program", std::move(prog));

    root.set("config", configToJson(spec.config));
    root.set("max_cycles", JsonValue::u64(spec.maxCycles));
    if (!spec.build.empty())
        root.set("build", JsonValue::str(spec.build));

    JsonValue failure = JsonValue::object();
    failure.set("error", errorToJson(spec.error));
    failure.set("halted", JsonValue::boolean(spec.halted));
    failure.set("arch_match", JsonValue::boolean(spec.archMatch));
    root.set("failure", std::move(failure));

    JsonValue sched = JsonValue::array();
    for (const chaos::FaultEvent &e : spec.schedule) {
        JsonValue ev = JsonValue::object();
        ev.set("ordinal", JsonValue::u64(e.ordinal));
        ev.set("site", JsonValue::str(chaos::faultSiteName(e.site)));
        ev.set("magnitude", JsonValue::u64(e.magnitude));
        sched.push(std::move(ev));
    }
    root.set("schedule", std::move(sched));
    return root;
}

bool
fromJson(const JsonValue &root, ReproSpec *spec, std::string *err)
{
    if (!root.isObject() ||
        root.getString("format") != "edgesim-repro") {
        if (err)
            *err = "not an edgesim-repro document";
        return false;
    }
    const JsonValue *prog = root.get("program");
    if (!prog || !prog->isObject() ||
        prog->getString("kernel").empty()) {
        if (err)
            *err = "missing program.kernel";
        return false;
    }
    spec->program.kernel = prog->getString("kernel");
    spec->program.params.iterations =
        prog->getU64("iterations", spec->program.params.iterations);
    spec->program.params.seed =
        prog->getU64("seed", spec->program.params.seed);
    spec->programHash = prog->getU64("hash");
    spec->program.hasEmbedded = false;
    if (const JsonValue *embedded = prog->get("embedded")) {
        if (!programFromJson(*embedded, &spec->program.embedded, err))
            return false;
        spec->program.hasEmbedded = true;
    }

    if (const JsonValue *cfg = root.get("config"))
        configFromJson(*cfg, &spec->config);
    spec->maxCycles = root.getU64("max_cycles", spec->maxCycles);
    spec->build = root.getString("build");

    if (const JsonValue *failure = root.get("failure")) {
        if (const JsonValue *e = failure->get("error"))
            errorFromJson(*e, &spec->error);
        spec->halted = failure->getBool("halted");
        spec->archMatch = failure->getBool("arch_match");
    }

    spec->schedule.clear();
    if (const JsonValue *sched = root.get("schedule")) {
        for (const JsonValue &ev : sched->items()) {
            chaos::FaultEvent e;
            e.ordinal = ev.getU64("ordinal");
            e.site = chaos::faultSiteByName(
                ev.getString("site", "hop-delay"));
            e.magnitude = ev.getU64("magnitude");
            spec->schedule.push_back(e);
        }
    }
    return true;
}

bool
save(const ReproSpec &spec, const std::string &path, std::string *err)
{
    // Durable write: a repro capture is usually the only artifact of
    // a crash, so it must never itself be lost to a half-write when
    // the capturing process (or host) dies mid-save.
    return writeFileDurable(path, toJson(spec).dump(), err);
}

bool
load(const std::string &path, ReproSpec *spec, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "repro '" + path + "': cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (text.empty()) {
        if (err)
            *err = "repro '" + path +
                   "': file is empty (truncated capture?)";
        return false;
    }
    JsonValue root;
    std::string perr;
    if (!JsonValue::parse(text, &root, &perr)) {
        if (err)
            *err = "repro '" + path + "': malformed JSON (" + perr +
                   ") — the file is truncated or not a repro capture";
        return false;
    }
    std::string ferr;
    if (!fromJson(root, spec, &ferr)) {
        if (err)
            *err = "repro '" + path + "': " + ferr;
        return false;
    }
    return true;
}

ReproSpec
captureFromResult(const ProgramRef &program,
                  const core::MachineConfig &config, Cycle max_cycles,
                  const sim::RunResult &result)
{
    ReproSpec spec;
    spec.program = program;
    spec.programHash = programHash(buildProgram(program));
    spec.config = config;
    // Bake the effective seeds so the spec replays standalone: the
    // runtime derives chaos.seed from rngSeed when left at 0.
    spec.config.rngSeed = result.rngSeed;
    if (spec.config.chaos.enabled())
        spec.config.chaos.seed = result.chaosSeed;
    spec.maxCycles = max_cycles;
    spec.build = buildInfoLine();
    spec.error = result.error;
    spec.halted = result.halted;
    spec.archMatch = result.archMatch;
    spec.schedule = result.chaosEvents;
    return spec;
}

std::string
captureToFile(const ReproSpec &spec, const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("repro: cannot create directory '%s': %s", dir.c_str(),
             ec.message().c_str());
        return "";
    }
    std::string kind = chaos::reasonName(spec.error.reason);
    if (spec.error.ok())
        kind = spec.archMatch ? "halt" : "divergence";
    std::string name = strfmt(
        "%s-%s-%s-seed%llu.repro.json", slug(spec.program.kernel).c_str(),
        slug(pred::depPolicyName(spec.config.policy)).c_str(),
        slug(kind + (spec.error.invariant.empty()
                         ? ""
                         : "-" + spec.error.invariant))
            .c_str(),
        static_cast<unsigned long long>(spec.config.rngSeed));
    std::string path = (std::filesystem::path(dir) / name).string();
    std::string err;
    if (!save(spec, path, &err)) {
        warn("repro: %s", err.c_str());
        return "";
    }
    return path;
}

std::size_t
captureSweepFailures(sim::ChaosSweepReport &report,
                     const ProgramRef &program, Cycle max_cycles,
                     const std::string &dir)
{
    std::size_t written = 0;
    for (sim::ChaosSweepOutcome &o : report.runs) {
        if (o.converged())
            continue;
        ReproSpec spec = captureFromResult(program, o.machine,
                                           max_cycles, o.result);
        o.reproPath = captureToFile(spec, dir);
        if (!o.reproPath.empty())
            ++written;
    }
    return written;
}

sim::RunResult
replay(const ReproSpec &spec)
{
    isa::Program prog = buildProgram(spec.program);
    if (spec.program.hasEmbedded) {
        // Loaded from disk, so check before the Simulator's fatal-on-
        // invalid constructor produces an opaque message.
        std::vector<isa::ValidationIssue> issues = prog.validateAll();
        fatal_if(!issues.empty(),
                 "repro: embedded program is invalid: %s",
                 issues.front().str().c_str());
    }
    if (!spec.build.empty()) {
        std::string mismatch = buildMismatch(spec.build);
        if (!mismatch.empty())
            warn("repro: captured on a different build (%s) — the "
                 "replay may legitimately not reproduce",
                 mismatch.c_str());
    }
    std::uint64_t hash = programHash(prog);
    if (spec.programHash != 0 && hash != spec.programHash)
        warn("repro: program hash mismatch (spec %016llx, built "
             "%016llx) — the workload generator changed; the replay "
             "may not reproduce the failure",
             static_cast<unsigned long long>(spec.programHash),
             static_cast<unsigned long long>(hash));
    sim::Simulator sim(std::move(prog), spec.config);
    return sim.run(spec.config, spec.maxCycles);
}

bool
sameSignature(const ReproSpec &spec, const sim::RunResult &result)
{
    return spec.error.reason == result.error.reason &&
           spec.error.invariant == result.error.invariant &&
           spec.error.cycle == result.error.cycle &&
           spec.halted == result.halted &&
           spec.archMatch == result.archMatch;
}

bool
sameFailureKind(const ReproSpec &spec, const sim::RunResult &result)
{
    if (spec.error.reason != chaos::SimError::Reason::None)
        return spec.error.reason == result.error.reason &&
               spec.error.invariant == result.error.invariant;
    // Divergence failures carry no SimError: the signature is the
    // halted/archMatch verdict itself.
    return !result.error.ok()
               ? false
               : spec.halted == result.halted &&
                     spec.archMatch == result.archMatch;
}

std::string
signatureLine(const ReproSpec &spec)
{
    std::string out = strfmt(
        "%s kernel=%s seed=%llu cycle=%llu halted=%d archMatch=%d",
        chaos::reasonName(spec.error.reason),
        spec.program.kernel.c_str(),
        static_cast<unsigned long long>(spec.config.rngSeed),
        static_cast<unsigned long long>(spec.error.cycle), spec.halted,
        spec.archMatch);
    if (!spec.error.invariant.empty())
        out += " invariant=" + spec.error.invariant;
    return out;
}

} // namespace edge::triage
