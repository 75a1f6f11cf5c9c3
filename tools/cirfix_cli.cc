/**
 * @file
 * Command-line front end — the analogue of the original artifact's
 * prototype/repair.py driven by repair.conf, plus the client and
 * daemon sides of the repair service.
 *
 * Local subcommands:
 *
 *   cirfix repair   --design faulty.v --tb <tb_module> --dut <module>
 *                   (--golden golden.v | --oracle trace.csv)
 *                   [--pop N] [--gens N] [--budget SECONDS] [--seed N]
 *                   [--phi F] [--out repaired.v] [--trials N]
 *                   [--log run.log] [--snapshot f.snap]
 *                   [--islands K] [--migration-interval N] [--migrants M]
 *                   (each trial runs as the job `submit` would send,
 *                   through service::runRepairJob; --snapshot
 *                   checkpoints every generation and resumes an
 *                   existing checkpoint, in f.snap.d/ for K islands)
 *
 *   cirfix simulate --design design.v --tb <tb_module>
 *                   [--vcd out.vcd] [--trace out.csv]
 *
 *   cirfix localize --design faulty.v --tb <tb_module> --dut <module>
 *                   (--golden golden.v | --oracle trace.csv)
 *
 *   cirfix lint     <file.v>... [--json] [--Werror]
 *                   [--waivers FILE] [--check id=severity]
 *
 *   cirfix lint-bench  [--Werror] [--waivers FILE]
 *                   [--check id=severity]
 *                   (lints every seed benchmark design)
 *
 *   cirfix witness  --golden g.v --patched p.v --dut <module>
 *                   [--seed N] [--tries N] [--cycles N]
 *                   [--out bench.v] [--json]
 *                   (search for a minimal stimulus separating the two)
 *
 * Witness-driven hardening: `repair --harden 1` additionally needs
 * --golden (for witness generation) plus --verify-tb/--verify-module
 * (the held-out bench that exposes overfitting); when a found patch
 * fails the held-out bench, a discriminating witness bench is
 * generated, installed into the oracle, and the run resumes from its
 * discovery-point snapshot (pass --snapshot to enable resume; without
 * it each hardening round restarts). Hardening runs its own engine
 * loop (core::hardenedRepair), not a service job.
 *
 * Service subcommands (see src/service/):
 *
 *   cirfix serve    --socket PATH | --listen ADDR  --state-dir DIR
 *                   [--workers N] [--queue-depth N]
 *                   [--max-eval-budget N] [--max-budget-seconds S]
 *                   [--min-workers N] [--lease-seconds S]
 *                   (--min-workers N >= 1: a fleet coordinator that
 *                   rejects submits while no worker is connected)
 *
 *   cirfix worker   --connect ADDR --work-dir DIR [--name NAME]
 *                   (claims and executes jobs from a serve daemon)
 *
 *   cirfix submit   --socket|--connect ADDR <repair inputs>
 *                   [--priority N]
 *   cirfix status   --socket|--connect ADDR --id N
 *   cirfix list     --socket|--connect ADDR
 *   cirfix cancel   --socket|--connect ADDR --id N
 *   cirfix result   --socket|--connect ADDR --id N [--out repaired.v]
 *   cirfix watch    --socket|--connect ADDR --id N
 *
 * Addresses are "unix:PATH", "tcp:host:port", or a bare socket path.
 * Client commands take [--timeout S] (connect + per-frame I/O
 * deadline; expiry exits with code 5) and [--retry N] (connect
 * attempts with exponential backoff).
 *
 * Design files may contain the testbench module inline, or pass an
 * extra file with --extra (repeatable) — all files are concatenated.
 *
 * Exit codes (stable; scripts rely on them):
 *   0  repair found (repair/result), or the command succeeded
 *   1  lint found error-severity diagnostics (lint/lint-bench only)
 *   2  no repair within the resource budget (or job canceled first)
 *   3  usage error: bad flags, bad request, unknown job
 *   4  internal error: I/O failure, malformed design, server fault
 *   5  --timeout expired before the server answered
 */

#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "benchmarks/registry.h"
#include "core/engine.h"
#include "core/faultloc.h"
#include "core/scenario.h"
#include "core/snapshot.h"
#include "core/witness.h"
#include "lint/lint.h"
#include "service/client.h"
#include "service/fleet.h"
#include "service/server.h"
#include "service/session.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "sim/vcd.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

namespace {

using namespace cirfix;

constexpr int kExitRepairFound = 0;
constexpr int kExitLintErrors = 1;
constexpr int kExitNoRepair = 2;
constexpr int kExitUsage = 3;
constexpr int kExitInternal = 4;
constexpr int kExitTimeout = 5;

/** Bad flags / bad invocation — exits with kExitUsage. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct Args
{
    std::string command;
    std::map<std::string, std::string> flags;
    std::vector<std::string> extras;
    /** Bare (non-flag) arguments; only the lint command takes any. */
    std::vector<std::string> positional;
    /** Repeatable --check id=severity overrides, in order. */
    std::vector<std::string> checkOverrides;

    const std::string &
    need(const std::string &key) const
    {
        auto it = flags.find(key);
        if (it == flags.end())
            throw UsageError("missing required flag --" + key);
        return it->second;
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    long
    getLong(const std::string &key, long fallback) const
    {
        auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        try {
            return std::stol(it->second);
        } catch (const std::exception &) {
            throw UsageError("flag --" + key +
                             " wants an integer, got '" + it->second +
                             "'");
        }
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        try {
            return std::stod(it->second);
        } catch (const std::exception &) {
            throw UsageError("flag --" + key + " wants a number, got '" +
                             it->second + "'");
        }
    }
};

/**
 * What one command accepts: flags that take a value, valueless
 * switches, and whether bare file operands are allowed.
 */
struct CommandFlags
{
    std::set<std::string> values = {};
    std::set<std::string> switches = {};
    bool files = false;
};

const CommandFlags *commandFlags(const std::string &command);

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        throw UsageError("no subcommand");
    args.command = argv[1];
    const CommandFlags *accepted = commandFlags(args.command);
    if (!accepted)
        throw UsageError("unknown subcommand '" + args.command + "'");
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            if (!accepted->files)
                throw UsageError("unexpected argument: " + a);
            args.positional.push_back(a);
            continue;
        }
        std::string key = a.substr(2);
        if (accepted->switches.count(key)) {
            args.flags[key] = "1";
            continue;
        }
        if (!accepted->values.count(key))
            throw UsageError(args.command + " does not take --" + key);
        if (i + 1 >= argc)
            throw UsageError("flag --" + key + " needs a value");
        std::string value = argv[++i];
        if (key == "extra")
            args.extras.push_back(value);
        else if (key == "check")
            args.checkOverrides.push_back(value);
        else
            args.flags[key] = value;
    }
    return args;
}

using core::readFile;

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << content;
}

std::string
gatherSources(const Args &args)
{
    std::string src = readFile(args.need("design"));
    for (auto &e : args.extras) {
        src += '\n';
        src += readFile(e);
    }
    return src;
}

// ---------------------------------------------------------------
// Repair requests and results, shared by repair, localize, submit,
// result and watch
// ---------------------------------------------------------------

/** The repair request `repair` runs and `submit` ships to a daemon:
 *  the inputs plus the search flags, each defaulting to @p defaults. */
service::JobSpec
specFromArgs(const Args &args, const service::JobParams &defaults)
{
    service::JobSpec spec;
    spec.designSource = gatherSources(args);
    spec.tbModule = args.need("tb");
    spec.dutModule = args.need("dut");
    if (args.flags.count("oracle"))
        spec.oracleCsv = readFile(args.get("oracle"));
    else if (args.flags.count("golden"))
        spec.goldenSource = readFile(args.get("golden"));
    else
        throw UsageError("need --golden <file> or --oracle <csv>");
    service::JobParams &p = spec.params;
    p = defaults;
    p.popSize = static_cast<int>(args.getLong("pop", p.popSize));
    p.maxGenerations =
        static_cast<int>(args.getLong("gens", p.maxGenerations));
    p.maxSeconds = args.getDouble("budget", p.maxSeconds);
    p.seed = static_cast<uint64_t>(
        args.getLong("seed", static_cast<long>(p.seed)));
    p.numThreads = static_cast<int>(args.getLong("threads", p.numThreads));
    p.phi = args.getDouble("phi", p.phi);
    p.evalDeadlineSeconds =
        args.getDouble("deadline", p.evalDeadlineSeconds);
    p.evalMemoryBudget = static_cast<uint64_t>(args.getLong(
        "mem-budget", static_cast<long>(p.evalMemoryBudget)));
    p.islands = static_cast<int>(args.getLong("islands", p.islands));
    p.migrationInterval = static_cast<int>(
        args.getLong("migration-interval", p.migrationInterval));
    p.migrantsPerIsland = static_cast<int>(
        args.getLong("migrants", p.migrantsPerIsland));
    spec.priority = static_cast<int>(args.getLong("priority", 0));
    try {
        service::checkJobSpec(spec);
    } catch (const std::runtime_error &e) {
        throw UsageError(e.what());
    }
    return spec;
}

/** One generation event as `watch` and `repair --log` print it. */
std::string
generationLine(const std::string &who, const service::Json &ev)
{
    std::ostringstream os;
    os << who;
    if (ev.has("island"))
        os << " island " << ev.num("island") << " epoch "
           << ev.num("epoch");
    os << " gen " << ev.num("generation") << " best "
       << ev.real("best_fitness") << " evals "
       << service::countersFromJson(ev).fitnessEvals << "\n";
    return os.str();
}

/**
 * Print one result payload (a repair trial's or a finished job's):
 * counters, outcomes, a K-island run's winner and fingerprint, then
 * the patch, with the repaired design written to --out or stdout.
 * @return kExitRepairFound or kExitNoRepair.
 */
int
printResult(const service::Json &res, const Args &args)
{
    core::SearchCounters c = service::countersFromJson(res);
    std::cout << "  " << c.fitnessEvals << " fitness probes, "
              << res.num("generations") << " generations, "
              << res.real("seconds") << "s\n"
              << "  outcomes: " << c.outcomes.summary() << "\n";
    if (c.lintRejects > 0)
        std::cout << "  lint rejects: " << c.lintRejects
                  << " (candidates never simulated)\n";
    if (const service::Json *islands = res.find("islands")) {
        if (islands->flag("found"))
            std::cout << "  winner: island " << islands->num("winner_island")
                      << " at epoch " << islands->num("winner_epoch")
                      << "\n";
        std::cout << "  fingerprint: " << islands->str("fingerprint")
                  << "\n";
    }
    if (!res.flag("found"))
        return kExitNoRepair;
    std::cout << "repair found: " << res.str("patch") << "\n";
    if (args.flags.count("out")) {
        writeFile(args.get("out"), res.str("repaired_source"));
        std::cout << "repaired design written to " << args.get("out")
                  << "\n";
    } else {
        std::cout << res.str("repaired_source");
    }
    return kExitRepairFound;
}

int
cmdSimulate(const Args &args)
{
    std::string src = gatherSources(args);
    std::string tb = args.need("tb");
    std::shared_ptr<const verilog::SourceFile> file =
        verilog::parse(src);
    sim::ProbeConfig probe = sim::deriveProbeConfig(*file, tb);
    auto design = sim::elaborate(file, tb);
    sim::TraceRecorder rec(*design, probe);
    std::unique_ptr<sim::VcdRecorder> vcd;
    if (args.flags.count("vcd"))
        vcd = std::make_unique<sim::VcdRecorder>(*design);
    auto res = design->run();
    std::cout << "simulation ended at t=" << res.endTime << " ("
              << res.callbacks << " callbacks)\n";
    for (auto &line : design->displayLog())
        std::cout << "$display: " << line << "\n";
    if (args.flags.count("trace")) {
        writeFile(args.get("trace"), rec.trace().toCsv());
        std::cout << "trace written to " << args.get("trace") << "\n";
    } else {
        std::cout << rec.trace().toCsv();
    }
    if (vcd) {
        writeFile(args.get("vcd"), vcd->document());
        std::cout << "vcd written to " << args.get("vcd") << "\n";
    }
    return 0;
}

int
cmdLocalize(const Args &args)
{
    service::JobSpec spec = specFromArgs(args, {});
    service::JobInputs in = service::buildJobInputs(spec);
    auto design = sim::elaborate(in.faulty, spec.tbModule);
    sim::TraceRecorder rec(*design, in.probe);
    design->run();

    auto mismatch = core::outputMismatch(rec.trace(), in.oracle);
    std::cout << "mismatched outputs:";
    for (auto &m : mismatch)
        std::cout << " " << m;
    std::cout << "\n";

    const verilog::Module *mod = in.faulty->findModule(spec.dutModule);
    auto fl = core::faultLocalize(*mod, rec.trace(), in.oracle);
    std::cout << "fault localization: " << fl.nodeIds.size()
              << " implicated nodes after " << fl.iterations
              << " iterations\n";
    verilog::visitAll(
        *const_cast<verilog::Module *>(mod),
        [&](verilog::Node &n) {
            if (n.kind == verilog::NodeKind::Assign &&
                fl.contains(n.id))
                std::cout << "  line " << n.line << ": "
                          << verilog::printStmt(
                                 *n.as<verilog::Assign>());
        });
    return 0;
}

// ---------------------------------------------------------------
// Lint subcommands
// ---------------------------------------------------------------

lint::Severity
parseSeverity(const std::string &name)
{
    if (name == "off")
        return lint::Severity::Off;
    if (name == "warning")
        return lint::Severity::Warning;
    if (name == "error")
        return lint::Severity::Error;
    throw UsageError("unknown severity '" + name +
                     "' (want off|warning|error)");
}

/** Shared by lint and lint-bench: --check / --waivers -> Options. */
lint::Options
lintOptionsFromArgs(const Args &args)
{
    lint::Options opts;
    for (const std::string &ov : args.checkOverrides) {
        size_t eq = ov.find('=');
        if (eq == std::string::npos)
            throw UsageError("--check wants id=severity, got '" + ov +
                             "'");
        std::string id = ov.substr(0, eq);
        bool known = false;
        for (const lint::CheckInfo &c : lint::checkRegistry())
            known = known || id == c.id;
        if (!known)
            throw UsageError("unknown lint check '" + id + "'");
        opts.overrides[id] = parseSeverity(ov.substr(eq + 1));
    }
    if (args.flags.count("waivers")) {
        try {
            opts.waivers =
                lint::parseWaivers(readFile(args.get("waivers")));
        } catch (const std::runtime_error &e) {
            throw UsageError(std::string("bad waiver file: ") +
                             e.what());
        }
    }
    return opts;
}

/** Exit status shared by lint and lint-bench: --Werror promotes
 *  unwaived warnings to failures. */
int
lintExitCode(int errors, int warnings, bool werror)
{
    return errors + (werror ? warnings : 0) > 0 ? kExitLintErrors
                                                : kExitRepairFound;
}

int
cmdLint(const Args &args)
{
    std::vector<std::string> files = args.positional;
    if (args.flags.count("design"))
        files.push_back(args.get("design"));
    for (const std::string &e : args.extras)
        files.push_back(e);
    if (files.empty())
        throw UsageError("lint wants at least one Verilog file");
    std::string src;
    for (const std::string &f : files)
        src += readFile(f) + "\n";
    std::shared_ptr<const verilog::SourceFile> file =
        verilog::parse(src);
    lint::Result res = lint::run(*file, lintOptionsFromArgs(args));
    if (args.flags.count("json"))
        std::cout << lint::renderJson(res);
    else
        std::cout << lint::renderText(res);
    return lintExitCode(res.errors, res.warnings,
                        args.flags.count("Werror") > 0);
}

int
cmdLintBench(const Args &args)
{
    // Lint every seed design in the benchmark registry: each
    // project's golden source and each defect's faulty source, both
    // together with the repair testbench (cross-module port-width
    // checks want the instantiating side present). No simulation —
    // this is the static sweep CI gates on.
    const lint::Options opts = lintOptionsFromArgs(args);
    const bool werror = args.flags.count("Werror") > 0;
    int errors = 0;
    int warnings = 0;
    auto sweep = [&](const std::string &name, const std::string &src) {
        auto file = verilog::parse(src);
        lint::Result res = lint::run(*file, opts);
        errors += res.errors;
        warnings += res.warnings;
        std::cout << name << ": " << res.errors << " error(s), "
                  << res.warnings << " warning(s)\n";
        if (res.errors + (werror ? res.warnings : 0) > 0)
            std::cout << lint::renderText(res);
    };
    for (const core::ProjectSpec &p : bench::allProjects())
        sweep(p.name,
              p.goldenSource + "\n" + p.testbenchSource);
    for (const core::DefectSpec &d : bench::allDefects()) {
        const core::ProjectSpec &p = bench::getProject(d.project);
        sweep(d.id, core::applyRewrites(p.goldenSource, d.rewrites) +
                        "\n" + p.testbenchSource);
    }
    std::cout << "lint-bench total: " << errors << " error(s), "
              << warnings << " warning(s)\n";
    return lintExitCode(errors, warnings, werror);
}

// ---------------------------------------------------------------
// Witness generation
// ---------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Witness search knobs shared by `witness` and `repair --harden`. */
core::WitnessOptions
witnessOptionsFromArgs(const Args &args)
{
    core::WitnessOptions wo;
    wo.maxTries =
        static_cast<int>(args.getLong("tries", wo.maxTries));
    wo.maxCycles =
        static_cast<int>(args.getLong("cycles", wo.maxCycles));
    wo.maxRounds =
        static_cast<int>(args.getLong("rounds", wo.maxRounds));
    return wo;
}

int
cmdWitness(const Args &args)
{
    std::string golden_src = readFile(args.need("golden"));
    std::string patched_src = readFile(args.need("patched"));
    std::string dut = args.need("dut");
    core::WitnessOptions wo = witnessOptionsFromArgs(args);
    wo.seed = static_cast<uint64_t>(
        args.getLong("seed", static_cast<long>(wo.seed)));

    core::WitnessSearchResult ws = core::findWitness(
        golden_src, patched_src, dut, wo, "__cirfix_witness0",
        "cirfix witness: " + args.get("golden") + " vs " +
            args.get("patched"));

    if (args.flags.count("json")) {
        std::ostringstream os;
        os << "{\"found\": " << (ws.found ? "true" : "false")
           << ", \"tries\": " << ws.tries
           << ", \"coverage_pool\": " << ws.coveragePool;
        if (ws.found) {
            os << ", \"steps\": " << ws.steps.size()
               << ", \"steps_before_min\": " << ws.stepsBeforeMin
               << ", \"minimize_tests\": " << ws.minimizeTests
               << ", \"module\": \"" << jsonEscape(ws.bench.module)
               << "\", \"clock\": \"" << jsonEscape(ws.bench.probe.clock)
               << "\", \"signals\": [";
            for (size_t i = 0; i < ws.bench.probe.signals.size(); ++i)
                os << (i ? ", " : "") << "\""
                   << jsonEscape(ws.bench.probe.signals[i]) << "\"";
            os << "], \"oracle_rows\": " << ws.bench.oracle.rows().size()
               << ", \"bench_source\": \"" << jsonEscape(ws.bench.source)
               << "\", \"oracle_csv\": \""
               << jsonEscape(ws.bench.oracle.toCsv()) << "\"";
        }
        os << "}\n";
        std::cout << os.str();
    } else if (ws.found) {
        std::cout << "witness found after " << ws.tries
                  << " stimuli: " << ws.stepsBeforeMin
                  << " cycle(s) minimized to " << ws.steps.size()
                  << " (" << ws.minimizeTests << " minimizer tests, "
                  << ws.coveragePool << " novel behaviors pooled)\n";
    } else {
        std::cout << "no witness found after " << ws.tries
                  << " stimuli (the designs may be equivalent under "
                  << "short bounded stimuli)\n";
    }
    if (ws.found) {
        if (args.flags.count("out")) {
            writeFile(args.get("out"), ws.bench.source);
            std::cout << "witness bench written to " << args.get("out")
                      << "\n";
        } else if (!args.flags.count("json")) {
            std::cout << ws.bench.source;
        }
    }
    return ws.found ? kExitRepairFound : kExitNoRepair;
}

/** Trial @p trial's seed: trials are independent searches. */
uint64_t
trialSeed(uint64_t seed0, int trial)
{
    return seed0 + static_cast<uint64_t>(trial) * 7919;
}

/**
 * `repair --harden 1`: witness-driven oracle hardening (witness.h). It
 * needs the full scenario — the golden design (witness generation
 * compares against it) and a held-out verification bench (which
 * exposes overfitting in the first place).
 */
int
repairHardened(const Args &args, const service::JobSpec &spec,
               int trials)
{
    if (spec.goldenSource.empty())
        throw UsageError("--harden 1 needs --golden <file>");
    if (spec.params.islands > 1)
        throw UsageError("--harden 1 does not combine with --islands");
    auto design = verilog::parse(spec.designSource);
    auto golden = verilog::parse(spec.goldenSource);
    core::ProjectSpec proj;
    proj.name = "cli";
    proj.description = "cirfix repair --harden";
    proj.goldenSource = spec.goldenSource;
    proj.testbenchSource = service::testbenchOnlySource(*design, *golden);
    proj.verifySource = readFile(args.need("verify-tb"));
    proj.dutModule = spec.dutModule;
    proj.tbModule = spec.tbModule;
    proj.verifyModule = args.need("verify-module");
    // The faulty DUT is every module of --design that the golden file
    // also defines (the rest is the repair testbench).
    std::string faulty_dut;
    for (auto &m : design->modules)
        if (golden->findModule(m->name))
            faulty_dut += verilog::print(*m) + "\n";
    core::EngineConfig cfg = service::engineConfigFromSpec(spec);
    cfg.snapshotPath = args.get("snapshot");
    core::Scenario sc =
        core::buildScenarioFromSources(proj, faulty_dut, cfg.simLimits);
    core::WitnessOptions wo = witnessOptionsFromArgs(args);
    for (int trial = 0; trial < trials; ++trial) {
        cfg.seed = trialSeed(spec.params.seed, trial);
        wo.seed = cfg.seed;
        std::cout << "trial " << trial + 1 << "/" << trials << " (seed "
                  << cfg.seed << ", hardened)...\n";
        core::HardenedRepairResult hr = core::hardenedRepair(sc, cfg, wo);
        if (hr.overfitKills > 0)
            std::cout << "  oracle hardening: " << hr.overfitKills
                      << " overfit patch(es) killed by witnesses ("
                      << hr.rounds << " round(s), " << hr.witnessTries
                      << " stimuli tried, " << hr.resumedFromSnapshot
                      << " snapshot resume(s))\n";
        if (hr.result.found)
            std::cout << "  held-out verification: "
                      << (hr.correct ? "PASS" : "FAIL (plausible-only)")
                      << "\n";
        if (printResult(service::resultToJson(hr.result), args) ==
            kExitRepairFound)
            return kExitRepairFound;
    }
    std::cout << "no repair found within resource bounds\n";
    return kExitNoRepair;
}

/**
 * Each trial is the job a daemon worker would run for the same flags
 * (service::runRepairJob), checkpointed at --snapshot FILE (FILE.d/
 * for a K-island run): an existing checkpoint resumes, so rerunning
 * an interrupted command continues it bit-identically.
 */
int
cmdRepair(const Args &args)
{
    // The local command's defaults; a daemon job's are smaller.
    service::JobParams defaults;
    defaults.popSize = 500;
    defaults.maxGenerations = 20;
    defaults.maxSeconds = 60.0;
    defaults.numThreads = 0;
    defaults.seed = 1000;
    service::JobSpec spec = specFromArgs(args, defaults);
    const int trials = static_cast<int>(args.getLong("trials", 5));
    if (args.getLong("harden", 0) != 0)
        return repairHardened(args, spec, trials);

    const std::string snapshot = args.get("snapshot");
    std::unique_ptr<std::ofstream> log;
    if (args.flags.count("log"))
        log = std::make_unique<std::ofstream>(args.get("log"));
    const uint64_t seed0 = spec.params.seed;
    for (int trial = 0; trial < trials; ++trial) {
        // A finished trial's checkpoint must not resume the next one.
        if (trial > 0 && !snapshot.empty())
            service::removeCheckpoint(snapshot);
        spec.params.seed = trialSeed(seed0, trial);
        std::cout << "trial " << trial + 1 << "/" << trials << " (seed "
                  << spec.params.seed;
        if (spec.params.islands > 1)
            std::cout << ", " << spec.params.islands
                      << " islands, migrate every "
                      << spec.params.migrationInterval << " gens";
        std::cout << ")...\n";
        std::function<void(const core::GenerationStats &)> onGen;
        if (log)
            onGen = [&log, trial](const core::GenerationStats &g) {
                *log << generationLine("trial " + std::to_string(trial + 1),
                                       service::generationToJson(g))
                     << std::flush;
            };
        service::SessionOutcome run =
            service::runRepairJob(spec, snapshot, onGen, nullptr);
        if (run.state == service::JobState::Failed)
            throw std::runtime_error(run.error);
        if (printResult(run.result, args) == kExitRepairFound)
            return kExitRepairFound;
    }
    std::cout << "no repair found within resource bounds\n";
    return kExitNoRepair;
}

// ---------------------------------------------------------------
// Service subcommands
// ---------------------------------------------------------------

service::Server *g_server = nullptr;
service::Worker *g_worker = nullptr;

void
onStopSignal(int)
{
    if (g_server)
        g_server->requestStop();  // async-signal-safe (one write())
    if (g_worker)
        g_worker->requestStop();  // async-signal-safe (atomic store)
}

int
cmdServe(const Args &args)
{
    service::ServerConfig cfg;
    std::string socket = args.get("socket");
    cfg.listenAddress = args.get("listen");
    if (socket.empty() == cfg.listenAddress.empty())
        throw UsageError(
            "serve needs exactly one of --socket PATH and --listen ADDR");
    if (!socket.empty())
        cfg.listenAddress = socket;
    cfg.stateDir = args.need("state-dir");
    cfg.workers = static_cast<int>(args.getLong("workers", 1));
    service::AdmissionLimits &limits = cfg.limits;
    limits.queueDepth = static_cast<int>(
        args.getLong("queue-depth", limits.queueDepth));
    limits.maxEvalBudget =
        args.getLong("max-eval-budget", limits.maxEvalBudget);
    limits.maxBudgetSeconds =
        args.getDouble("max-budget-seconds", limits.maxBudgetSeconds);
    // --min-workers N >= 1 is the fleet-coordinator posture: submits
    // are rejected while no worker is connected, and fewer than N
    // remote workers halve the queue depth.
    long minWorkers = args.getLong("min-workers", 0);
    if (minWorkers < 0)
        throw UsageError("--min-workers must not be negative");
    cfg.fleet.requireWorkers = minWorkers > 0;
    cfg.fleet.minWorkers = static_cast<int>(minWorkers);
    cfg.fleet.leaseSeconds =
        args.getDouble("lease-seconds", cfg.fleet.leaseSeconds);
    if (cfg.fleet.leaseSeconds <= 0)
        throw UsageError("--lease-seconds must be positive");

    service::Server server(cfg);
    server.start();
    g_server = &server;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::cout << "cirfix-repaird listening on " << server.boundAddress()
              << " (state dir " << cfg.stateDir << ", " << cfg.workers
              << " local worker" << (cfg.workers == 1 ? "" : "s")
              << ")\n"
              << std::flush;
    server.wait();
    server.stop();
    g_server = nullptr;
    std::cout << "daemon stopped; interrupted jobs resume on restart\n";
    return 0;
}

int
cmdWorker(const Args &args)
{
    service::WorkerConfig wc;
    wc.coordinator = args.need("connect");
    wc.workDir = args.need("work-dir");
    wc.name = args.get("name", "worker");
    service::Worker worker(wc);
    g_worker = &worker;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::cout << "cirfix worker '" << wc.name << "' claiming from "
              << wc.coordinator << " (work dir " << wc.workDir << ")\n"
              << std::flush;
    worker.run({});
    g_worker = nullptr;
    service::WorkerStats st = worker.stats();
    std::cout << "worker stopped: " << st.jobsCompleted
              << " job(s) completed, " << st.jobsAbandoned
              << " abandoned, " << st.reconnects << " reconnect(s)\n";
    return 0;
}

/** Client commands accept --connect ADDR (or the legacy --socket). */
std::string
serviceAddress(const Args &args)
{
    if (args.flags.count("connect"))
        return args.get("connect");
    return args.need("socket");
}

/** --timeout S bounds connect + every frame; --retry N adds dial
 *  attempts with exponential backoff. */
service::ClientOptions
clientOptionsFromArgs(const Args &args)
{
    service::ClientOptions opts;
    double timeout = args.getDouble("timeout", 0.0);
    if (timeout < 0)
        throw UsageError("--timeout wants a non-negative number");
    if (timeout > 0) {
        opts.connectTimeout = timeout;
        opts.ioTimeout = timeout;
    }
    opts.connectAttempts =
        static_cast<int>(args.getLong("retry", 1));
    if (opts.connectAttempts < 1)
        throw UsageError("--retry wants at least 1 attempt");
    return opts;
}

int
cmdSubmit(const Args &args)
{
    service::JobSpec spec = specFromArgs(args, {});
    service::ClientOptions opts = clientOptionsFromArgs(args);
    // The request id makes a retried submit idempotent: if the
    // connection dies after the server enqueued but before the reply
    // arrived, the retry returns the same job instead of a duplicate.
    std::string requestId = service::Client::newRequestId();
    for (int attempt = 1;; ++attempt) {
        try {
            service::Client client(serviceAddress(args), opts);
            long id = client.submit(spec, requestId);
            std::cout << "submitted job " << id << "\n";
            return 0;
        } catch (const service::ConnectionClosed &) {
            if (attempt >= 3)
                throw;
        }
    }
}

int
cmdStatus(const Args &args)
{
    service::Client client(serviceAddress(args),
                           clientOptionsFromArgs(args));
    std::cout << client.status(args.getLong("id", -1)).dump() << "\n";
    return 0;
}

int
cmdList(const Args &args)
{
    service::Client client(serviceAddress(args),
                           clientOptionsFromArgs(args));
    service::Json jobs = client.list();
    for (const service::Json &job : jobs.items())
        std::cout << job.dump() << "\n";
    return 0;
}

int
cmdCancel(const Args &args)
{
    service::Client client(serviceAddress(args),
                           clientOptionsFromArgs(args));
    long id = args.getLong("id", -1);
    client.cancel(id);
    std::cout << "cancel requested for job " << id << "\n";
    return 0;
}

int
cmdResult(const Args &args)
{
    service::Client client(serviceAddress(args),
                           clientOptionsFromArgs(args));
    long id = args.getLong("id", -1);
    service::Json reply = client.result(id);
    std::string state = reply.str("state");
    if (state == "failed") {
        std::cerr << "job " << id << " failed: " << reply.str("error")
                  << "\n";
        return kExitInternal;
    }
    const service::Json *res = reply.find("result");
    if (!res || !res->isObject()) {
        std::cerr << "job " << id << " is " << state
                  << " but carries no result payload\n";
        return kExitInternal;
    }
    std::cout << "job " << id << " " << state << "\n";
    int code = printResult(*res, args);
    if (code == kExitNoRepair)
        std::cout << (state == "canceled"
                          ? "canceled before a repair was found\n"
                          : "no repair found within resource bounds\n");
    return code;
}

int
cmdWatch(const Args &args)
{
    service::Client client(serviceAddress(args),
                           clientOptionsFromArgs(args));
    long id = args.getLong("id", -1);
    client.subscribe(id);
    service::Json ev;
    while (client.recv(&ev)) {
        std::string type = ev.str("type");
        if (type == "end_of_stream")
            return 0;
        if (type == "error")
            throw service::ServiceError(ev.str("code", "internal"),
                                        ev.str("message"));
        std::string kind = ev.str("event");
        if (kind == "generation") {
            std::cout << generationLine("job " + std::to_string(id), ev)
                      << std::flush;
        } else if (kind == "state") {
            std::cout << "job " << id << " " << ev.str("state");
            if (ev.has("error"))
                std::cout << " (" << ev.str("error") << ")";
            std::cout << "\n" << std::flush;
        }
    }
    throw std::runtime_error("server closed the event stream early");
}

/**
 * The flags of every command, as usage() lists them (nullptr for an
 * unknown command). parseArgs rejects anything else with exit 3 before
 * the command does any work, so a misspelt flag cannot silently run
 * with a default.
 */
const CommandFlags *
commandFlags(const std::string &command)
{
    using Set = std::set<std::string>;
    auto join = [](std::initializer_list<Set> sets) {
        Set all;
        for (const Set &s : sets)
            all.insert(s.begin(), s.end());
        return all;
    };
    const Set inputs = {"design", "extra", "tb", "dut", "golden", "oracle"};
    const Set search = {"pop",      "gens",       "budget",
                        "seed",     "threads",    "phi",
                        "deadline", "mem-budget", "islands",
                        "migration-interval",     "migrants"};
    const Set client = {"socket", "connect", "timeout", "retry"};
    const Set lint = {"waivers", "check"};
    static const std::map<std::string, CommandFlags> kCommands = {
        {"help", {}},
        {"--help", {}},
        {"-h", {}},
        {"repair",
         {join({inputs, search,
                {"trials", "out", "log", "snapshot", "harden",
                 "verify-tb", "verify-module", "tries", "cycles",
                 "rounds"}})}},
        {"simulate", {{"design", "extra", "tb", "vcd", "trace"}}},
        {"localize", {inputs}},
        {"lint",
         {join({lint, {"design", "extra"}}), {"json", "Werror"}, true}},
        {"lint-bench", {lint, {"Werror"}}},
        {"witness",
         {{"golden", "patched", "dut", "seed", "tries", "cycles", "out"},
          {"json"}}},
        {"serve",
         {{"socket", "listen", "state-dir", "workers", "queue-depth",
           "max-eval-budget", "max-budget-seconds", "min-workers",
           "lease-seconds"}}},
        {"worker", {{"connect", "work-dir", "name"}}},
        {"submit", {join({client, inputs, search, {"priority"}})}},
        {"status", {join({client, {"id"}})}},
        {"list", {client}},
        {"cancel", {join({client, {"id"}})}},
        {"result", {join({client, {"id", "out"}})}},
        {"watch", {join({client, {"id"}})}},
    };
    auto it = kCommands.find(command);
    return it == kCommands.end() ? nullptr : &it->second;
}

void
usage(std::ostream &os)
{
    os <<
        "usage: cirfix <command> [flags]\n"
        "\n"
        "local commands:\n"
        "  repair   --design f.v --tb TB --dut MOD "
        "(--golden g.v | --oracle t.csv)\n"
        "           [--pop N] [--gens N] [--budget S] [--seed N] "
        "[--phi F] [--trials N] [--threads N] [--out r.v]\n"
        "           [--deadline S] [--mem-budget BYTES] [--log l.txt]\n"
        "           [--snapshot f.snap]   (checkpoint each generation; "
        "resumes f.snap if it exists)\n"
        "           [--harden 0|1 --verify-tb v.v --verify-module MOD "
        "[--tries N] [--cycles N] [--rounds N]]\n"
        "           [--islands K] [--migration-interval N] "
        "[--migrants M]   (island-model evolution)\n"
        "  simulate --design f.v --tb TB [--vcd o.vcd] "
        "[--trace o.csv]\n"
        "  localize --design f.v --tb TB --dut MOD "
        "(--golden g.v | --oracle t.csv)\n"
        "  lint     <file.v>... [--json] [--Werror] "
        "[--waivers FILE] [--check id=severity]\n"
        "  lint-bench  [--Werror] [--waivers FILE] "
        "[--check id=severity]   (lint the benchmark suite)\n"
        "  witness  --golden g.v --patched p.v --dut MOD [--seed N]\n"
        "           [--tries N] [--cycles N] [--out bench.v] [--json]\n"
        "           (minimal stimulus separating two designs; exit 2 "
        "when none found)\n"
        "  (--extra file.v may be repeated to add source files)\n"
        "\n"
        "service commands (ADDR = unix:PATH | tcp:host:port | bare "
        "path):\n"
        "  serve    --socket S | --listen ADDR  --state-dir D "
        "[--workers N]\n"
        "           [--queue-depth N] [--max-eval-budget N] "
        "[--max-budget-seconds S]\n"
        "           [--min-workers N] [--lease-seconds S]   (N >= 1: "
        "reject submits until a worker connects)\n"
        "  worker   --connect ADDR --work-dir D [--name NAME]\n"
        "  submit   --socket|--connect ADDR <repair inputs> "
        "[--priority N]\n"
        "           [--islands K] [--migration-interval N] "
        "[--migrants M]   (one worker runs all K islands)\n"
        "  status   --socket|--connect ADDR --id N\n"
        "  list     --socket|--connect ADDR\n"
        "  cancel   --socket|--connect ADDR --id N\n"
        "  result   --socket|--connect ADDR --id N [--out r.v]\n"
        "  watch    --socket|--connect ADDR --id N\n"
        "  (client commands: [--timeout S] exits 5 on expiry; "
        "[--retry N] dial attempts)\n"
        "\n"
        "exit codes:\n"
        "  0  repair found / command succeeded\n"
        "  1  lint found error-severity diagnostics\n"
        "  2  no repair within the resource budget (or job canceled)\n"
        "  3  usage error (bad flags, bad request, unknown job)\n"
        "  4  internal error (I/O failure, malformed design, server "
        "fault)\n"
        "  5  --timeout expired before the server answered\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // A peer that hangs up mid-write must surface as a typed
    // ConnectionClosed from the framing layer, never kill the process
    // with SIGPIPE (sockets already use MSG_NOSIGNAL; this covers the
    // pipe fallback and any stray stdio writes to a closed pager).
    std::signal(SIGPIPE, SIG_IGN);
    try {
        Args args = parseArgs(argc, argv);
        if (args.command == "--help" || args.command == "-h" ||
            args.command == "help") {
            usage(std::cout);
            return 0;
        }
        if (args.command == "repair")
            return cmdRepair(args);
        if (args.command == "simulate")
            return cmdSimulate(args);
        if (args.command == "localize")
            return cmdLocalize(args);
        if (args.command == "lint")
            return cmdLint(args);
        if (args.command == "lint-bench")
            return cmdLintBench(args);
        if (args.command == "witness")
            return cmdWitness(args);
        if (args.command == "serve")
            return cmdServe(args);
        if (args.command == "worker")
            return cmdWorker(args);
        if (args.command == "submit")
            return cmdSubmit(args);
        if (args.command == "status")
            return cmdStatus(args);
        if (args.command == "list")
            return cmdList(args);
        if (args.command == "cancel")
            return cmdCancel(args);
        if (args.command == "result")
            return cmdResult(args);
        if (args.command == "watch")
            return cmdWatch(args);
        throw UsageError("unknown subcommand '" + args.command + "'");
    } catch (const UsageError &e) {
        std::cerr << "usage error: " << e.what() << "\n";
        usage(std::cerr);
        return kExitUsage;
    } catch (const service::FrameTimeout &e) {
        std::cerr << "timeout: " << e.what() << "\n";
        return kExitTimeout;
    } catch (const service::DialTimeout &e) {
        std::cerr << "timeout: " << e.what() << "\n";
        return kExitTimeout;
    } catch (const service::ServiceError &e) {
        std::cerr << "service error (" << e.code()
                  << "): " << e.what() << "\n";
        bool server_side = e.code() == service::errc::kInternal ||
                           e.code() == service::errc::kVersionMismatch;
        return server_side ? kExitInternal : kExitUsage;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitInternal;
    }
}
