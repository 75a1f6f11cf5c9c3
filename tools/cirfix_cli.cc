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
 * it each hardening round restarts).
 *
 * Service subcommands (see src/service/):
 *
 *   cirfix serve    --socket PATH | --listen ADDR  --state-dir DIR
 *                   [--workers N] [--queue-depth N]
 *                   [--max-eval-budget N] [--max-budget-seconds S]
 *
 *   cirfix coordinator --listen ADDR --state-dir DIR
 *                   [--local-workers N] [--min-workers N]
 *                   [--lease-seconds S] [admission flags as serve]
 *                   (fleet coordinator: jobs run on remote workers)
 *
 *   cirfix worker   --connect ADDR --work-dir DIR [--name NAME]
 *                   (claims and executes jobs from a coordinator)
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
#include <sstream>

#include "benchmarks/registry.h"
#include "core/engine.h"
#include "core/faultloc.h"
#include "core/island.h"
#include "core/scenario.h"
#include "core/snapshot.h"
#include "core/witness.h"
#include "lint/lint.h"
#include "service/client.h"
#include "service/fleet.h"
#include "service/server.h"
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
    /** Bare (non-flag) arguments; only the lint commands take any. */
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

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        throw UsageError("no subcommand");
    args.command = argv[1];
    const bool lint_cmd =
        args.command == "lint" || args.command == "lint-bench";
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            // Only the lint commands take bare file operands; for
            // everything else a stray word is a usage error.
            if (!lint_cmd)
                throw UsageError("unexpected argument: " + a);
            args.positional.push_back(a);
            continue;
        }
        std::string key = a.substr(2);
        // Boolean switches take no value.
        if ((lint_cmd && (key == "json" || key == "Werror")) ||
            (args.command == "witness" && key == "json")) {
            args.flags[key] = "1";
            continue;
        }
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

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
    for (auto &e : args.extras)
        src += "\n" + readFile(e);
    return src;
}

/** Expected behavior: golden design re-simulation or a CSV trace. */
sim::Trace
loadOracle(const Args &args, const sim::ProbeConfig &probe,
           const std::string &tb, const std::string &extra_tb_src)
{
    if (args.flags.count("oracle"))
        return sim::Trace::fromCsv(readFile(args.get("oracle")));
    if (!args.flags.count("golden"))
        throw UsageError("need --golden <file> or --oracle <csv>");
    std::string golden_src = readFile(args.get("golden"));
    golden_src += "\n" + extra_tb_src;
    std::shared_ptr<const verilog::SourceFile> golden =
        verilog::parse(golden_src);
    auto design = sim::elaborate(golden, tb);
    sim::TraceRecorder rec(*design, probe);
    design->run();
    return rec.takeTrace();
}

/** The --golden file holds the DUT only; reuse the tb from --design
 *  by stripping DUT modules that the golden file redefines. */
std::string
testbenchOnlySource(const std::string &combined_src,
                    const std::string &golden_src)
{
    auto combined = verilog::parse(combined_src);
    auto golden = verilog::parse(golden_src);
    std::string out;
    for (auto &m : combined->modules)
        if (!golden->findModule(m->name))
            out += verilog::print(*m) + "\n";
    return out;
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
    std::string src = gatherSources(args);
    std::string tb = args.need("tb");
    std::string dut = args.need("dut");
    std::shared_ptr<const verilog::SourceFile> file =
        verilog::parse(src);
    sim::ProbeConfig probe = sim::deriveProbeConfig(*file, tb);

    sim::Trace oracle = loadOracle(
        args, probe, tb,
        args.flags.count("golden")
            ? testbenchOnlySource(src, readFile(args.get("golden")))
            : "");

    auto design = sim::elaborate(file, tb);
    sim::TraceRecorder rec(*design, probe);
    design->run();

    auto mismatch = core::outputMismatch(rec.trace(), oracle);
    std::cout << "mismatched outputs:";
    for (auto &m : mismatch)
        std::cout << " " << m;
    std::cout << "\n";

    const verilog::Module *mod = file->findModule(dut);
    if (!mod)
        throw std::runtime_error("module not found: " + dut);
    auto fl = core::faultLocalize(*mod, rec.trace(), oracle);
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
    wo.seed = static_cast<uint64_t>(
        args.getLong("wseed", static_cast<long>(wo.seed)));
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

int
cmdRepair(const Args &args)
{
    std::string src = gatherSources(args);
    std::string tb = args.need("tb");
    std::string dut = args.need("dut");
    std::shared_ptr<const verilog::SourceFile> faulty =
        verilog::parse(src);
    sim::ProbeConfig probe = sim::deriveProbeConfig(*faulty, tb);

    sim::Trace oracle = loadOracle(
        args, probe, tb,
        args.flags.count("golden")
            ? testbenchOnlySource(src, readFile(args.get("golden")))
            : "");

    core::EngineConfig cfg;
    cfg.popSize = static_cast<int>(args.getLong("pop", 500));
    cfg.maxGenerations = static_cast<int>(args.getLong("gens", 20));
    cfg.maxSeconds = args.getDouble("budget", 60.0);
    cfg.fitness.phi = args.getDouble("phi", 2.0);
    cfg.numThreads = static_cast<int>(args.getLong("threads", 0));
    cfg.evalDeadlineSeconds =
        args.getDouble("deadline", cfg.evalDeadlineSeconds);
    cfg.evalMemoryBudget = static_cast<uint64_t>(args.getLong(
        "mem-budget", static_cast<long>(cfg.evalMemoryBudget)));
    cfg.earlyAbort = args.getLong("early-abort", 1) != 0;
    cfg.lintPrescreen = args.getLong("lint", 1) != 0;
    cfg.offspringPerGen =
        static_cast<int>(args.getLong("offspring", 0));
    cfg.snapshotPath = args.get("snapshot");
    cfg.snapshotEvery =
        static_cast<int>(args.getLong("snapshot-every", 1));
    int trials = static_cast<int>(args.getLong("trials", 5));
    uint64_t seed0 =
        static_cast<uint64_t>(args.getLong("seed", 1000));

    std::unique_ptr<std::ofstream> log;
    if (args.flags.count("log"))
        log = std::make_unique<std::ofstream>(args.get("log"));

    auto report = [&](const core::RepairResult &res) {
        std::cout << "  " << res.fitnessEvals << " fitness probes, "
                  << res.generations << " generations, " << res.seconds
                  << "s\n"
                  << "  outcomes: " << res.outcomes.summary() << "\n";
        if (res.earlyAborts > 0) {
            uint64_t rows = res.rowsScored + res.rowsSkipped;
            std::cout << "  early aborts: " << res.earlyAborts << " ("
                      << res.rowsSkipped << "/" << rows
                      << " oracle rows skipped)\n";
        }
        if (res.lintRejects > 0)
            std::cout << "  lint rejects: " << res.lintRejects
                      << " (candidates never simulated)\n";
        if (!res.found)
            return kExitNoRepair;
        std::cout << "repair found: " << res.patch.describe() << "\n";
        if (args.flags.count("out")) {
            writeFile(args.get("out"), res.repairedSource);
            std::cout << "repaired design written to "
                      << args.get("out") << "\n";
        } else {
            std::cout << res.repairedSource;
        }
        return kExitRepairFound;
    };

    // --islands K: island-model evolution (core/island.h). K derived
    // subpopulations evolve in parallel threads and exchange elites
    // every --migration-interval generations; the run is bit-identical
    // per (seed, K, schedule) and prints the canonical fingerprint so
    // it can be compared against a distributed fleet run.
    if (args.getLong("islands", 1) > 1) {
        core::IslandConfig ic;
        ic.islands = static_cast<int>(args.getLong("islands", 1));
        ic.migrationInterval = static_cast<int>(args.getLong(
            "migration-interval", ic.migrationInterval));
        ic.migrantsPerIsland = static_cast<int>(
            args.getLong("migrants", ic.migrantsPerIsland));
        if (ic.migrationInterval < 1 || ic.migrantsPerIsland < 0)
            throw UsageError("--migration-interval wants >= 1 and "
                             "--migrants wants >= 0");
        std::string snapDir = args.get("snapshot");
        cfg.snapshotPath.clear();  // per-island paths live in snapDir
        for (int trial = 0; trial < trials; ++trial) {
            cfg.seed = seed0 + static_cast<uint64_t>(trial) * 7919;
            std::function<void(const core::GenerationStats &)> onGen;
            if (log)
                onGen = [&log,
                         trial](const core::GenerationStats &g) {
                    *log << "trial " << trial + 1 << " island "
                         << g.island << " epoch " << g.epoch << " gen "
                         << g.generation << " best " << g.bestFitness
                         << " evals " << g.fitnessEvals << "\n";
                    log->flush();
                };
            std::cout << "trial " << trial + 1 << "/" << trials
                      << " (seed " << cfg.seed << ", " << ic.islands
                      << " islands, migrate every "
                      << ic.migrationInterval << " gens)...\n";
            core::IslandOutcome outcome =
                core::runIslands(faulty, tb, dut, probe, oracle, cfg,
                                 ic, snapDir, onGen);
            for (const core::IslandStats &st : outcome.islands) {
                std::cout << "  island " << st.island << ": "
                          << st.generations << " generations, best "
                          << st.bestFitness << ", "
                          << st.fitnessEvals << " evals, "
                          << st.fleetCacheHits << " fleet cache hits";
                if (st.found)
                    std::cout << " [found]";
                std::cout << "\n";
            }
            std::cout << "  migration: "
                      << outcome.migration.elitesExported
                      << " elites exported, "
                      << outcome.migration.migrantsBroadcast
                      << " migrants broadcast, "
                      << outcome.migration.migrantDuplicates
                      << " duplicates, "
                      << outcome.migration.elitesLost << " lost\n";
            if (outcome.found)
                std::cout << "  winner: island "
                          << outcome.winnerIsland << " at epoch "
                          << outcome.winnerEpoch << "\n";
            std::cout << "  fingerprint: " << outcome.fingerprint
                      << "\n";
            if (report(outcome.result) == kExitRepairFound)
                return kExitRepairFound;
        }
        std::cout << "no repair found within resource bounds\n";
        return kExitNoRepair;
    }

    // --harden 1: witness-driven oracle hardening. Needs the full
    // scenario — the golden design (witness generation compares
    // against it) and a held-out verification bench (which exposes
    // overfitting in the first place).
    if (args.getLong("harden", 0) != 0) {
        if (!args.flags.count("golden"))
            throw UsageError("--harden 1 needs --golden <file>");
        std::string golden_src = readFile(args.get("golden"));
        core::ProjectSpec proj;
        proj.name = "cli";
        proj.description = "cirfix repair --harden";
        proj.goldenSource = golden_src;
        proj.testbenchSource = testbenchOnlySource(src, golden_src);
        proj.verifySource = readFile(args.need("verify-tb"));
        proj.dutModule = dut;
        proj.tbModule = tb;
        proj.verifyModule = args.need("verify-module");
        // The faulty DUT is every module of --design that the golden
        // file also defines (the rest is the repair testbench).
        std::string faulty_dut;
        {
            auto dfile = verilog::parse(src);
            auto gfile = verilog::parse(golden_src);
            for (auto &m : dfile->modules)
                if (gfile->findModule(m->name))
                    faulty_dut += verilog::print(*m) + "\n";
        }
        core::Scenario sc = core::buildScenarioFromSources(
            proj, faulty_dut, cfg.simLimits);
        core::WitnessOptions wo = witnessOptionsFromArgs(args);
        for (int trial = 0; trial < trials; ++trial) {
            cfg.seed = seed0 + static_cast<uint64_t>(trial) * 7919;
            wo.seed = cfg.seed;
            std::cout << "trial " << trial + 1 << "/" << trials
                      << " (seed " << cfg.seed << ", hardened)...\n";
            core::HardenedRepairResult hr =
                core::hardenedRepair(sc, cfg, wo);
            if (hr.overfitKills > 0)
                std::cout << "  oracle hardening: " << hr.overfitKills
                          << " overfit patch(es) killed by witnesses ("
                          << hr.rounds << " round(s), "
                          << hr.witnessTries << " stimuli tried, "
                          << hr.resumedFromSnapshot
                          << " snapshot resume(s))\n";
            if (hr.result.found)
                std::cout << "  held-out verification: "
                          << (hr.correct ? "PASS"
                                         : "FAIL (plausible-only)")
                          << "\n";
            if (report(hr.result) == kExitRepairFound)
                return kExitRepairFound;
        }
        std::cout << "no repair found within resource bounds\n";
        return kExitNoRepair;
    }

    // --resume <snapshot>: continue an interrupted run bit-identically
    // (one trial; the snapshot pins the seed and progress).
    if (args.flags.count("resume")) {
        core::EngineState state =
            core::loadSnapshot(args.get("resume"));
        cfg.seed = state.seed;
        if (log) {
            cfg.onGeneration = [&log](const core::GenerationStats &g) {
                *log << "trial 1 gen " << g.generation << " best "
                     << g.bestFitness << " evals " << g.fitnessEvals
                     << " cache " << g.cache.hits << "/"
                     << g.cache.misses << " " << g.outcomes.summary()
                     << "\n";
                log->flush();
            };
        }
        core::RepairEngine engine(faulty, tb, dut, probe, oracle, cfg);
        std::cout << "resuming from " << args.get("resume")
                  << " (seed " << state.seed << ", "
                  << state.generationsDone << " generations done)...\n";
        return report(engine.resume(state));
    }

    for (int trial = 0; trial < trials; ++trial) {
        cfg.seed = seed0 + static_cast<uint64_t>(trial) * 7919;
        if (log) {
            cfg.onGeneration = [&log,
                                trial](const core::GenerationStats &g) {
                *log << "trial " << trial + 1 << " gen "
                     << g.generation << " best " << g.bestFitness
                     << " evals " << g.fitnessEvals << " cache "
                     << g.cache.hits << "/" << g.cache.misses << " "
                     << g.outcomes.summary() << "\n";
                log->flush();
            };
        }
        core::RepairEngine engine(faulty, tb, dut, probe, oracle, cfg);
        std::cout << "trial " << trial + 1 << "/" << trials
                  << " (seed " << cfg.seed << ")...\n";
        core::RepairResult res = engine.run();
        if (report(res) == kExitRepairFound)
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

/** Shared by serve and coordinator: admission caps from flags. */
void
admissionFromArgs(const Args &args, service::AdmissionLimits *limits)
{
    limits->queueDepth = static_cast<int>(
        args.getLong("queue-depth", limits->queueDepth));
    limits->maxEvalBudget =
        args.getLong("max-eval-budget", limits->maxEvalBudget);
    limits->maxBudgetSeconds =
        args.getDouble("max-budget-seconds", limits->maxBudgetSeconds);
}

int
runServer(const service::ServerConfig &cfg, const char *banner)
{
    service::Server server(cfg);
    server.start();
    g_server = &server;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::cout << banner << " listening on " << server.boundAddress()
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
    admissionFromArgs(args, &cfg.limits);
    return runServer(cfg, "cirfix-repaird");
}

int
cmdCoordinator(const Args &args)
{
    service::ServerConfig cfg;
    cfg.listenAddress = args.need("listen");
    cfg.stateDir = args.need("state-dir");
    // A coordinator executes nothing itself by default: jobs wait for
    // remote workers, and submits with zero workers are rejected with
    // no_workers. --local-workers N blends in local capacity.
    cfg.workers = static_cast<int>(args.getLong("local-workers", 0));
    cfg.fleet.requireWorkers = true;
    cfg.fleet.minWorkers =
        static_cast<int>(args.getLong("min-workers", 1));
    cfg.fleet.leaseSeconds =
        args.getDouble("lease-seconds", cfg.fleet.leaseSeconds);
    if (cfg.fleet.leaseSeconds <= 0)
        throw UsageError("--lease-seconds must be positive");
    admissionFromArgs(args, &cfg.limits);
    return runServer(cfg, "cirfix-coordinator");
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

/** Shared by submit: the same repair inputs the local repair command
 *  takes, shipped over the wire as a JobSpec. */
service::JobSpec
specFromArgs(const Args &args)
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
    spec.params.popSize = static_cast<int>(
        args.getLong("pop", spec.params.popSize));
    spec.params.maxGenerations = static_cast<int>(
        args.getLong("gens", spec.params.maxGenerations));
    spec.params.maxSeconds =
        args.getDouble("budget", spec.params.maxSeconds);
    spec.params.seed = static_cast<uint64_t>(
        args.getLong("seed", static_cast<long>(spec.params.seed)));
    spec.params.numThreads = static_cast<int>(
        args.getLong("threads", spec.params.numThreads));
    spec.params.phi = args.getDouble("phi", spec.params.phi);
    spec.params.evalDeadlineSeconds =
        args.getDouble("deadline", spec.params.evalDeadlineSeconds);
    spec.params.evalMemoryBudget = static_cast<uint64_t>(args.getLong(
        "mem-budget",
        static_cast<long>(spec.params.evalMemoryBudget)));
    spec.params.islands = static_cast<int>(
        args.getLong("islands", spec.params.islands));
    spec.params.migrationInterval = static_cast<int>(args.getLong(
        "migration-interval", spec.params.migrationInterval));
    spec.params.migrantsPerIsland = static_cast<int>(
        args.getLong("migrants", spec.params.migrantsPerIsland));
    spec.priority = static_cast<int>(args.getLong("priority", 0));
    return spec;
}

int
cmdSubmit(const Args &args)
{
    service::JobSpec spec = specFromArgs(args);
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
    std::cout << "job " << id << " " << state << ": "
              << res->num("fitness_evals") << " fitness probes, "
              << res->num("generations") << " generations\n";
    if (!res->flag("found")) {
        std::cout << (state == "canceled"
                          ? "canceled before a repair was found\n"
                          : "no repair found within resource bounds\n");
        return kExitNoRepair;
    }
    std::cout << "repair found: " << res->str("patch") << "\n";
    if (args.flags.count("out")) {
        writeFile(args.get("out"), res->str("repaired_source"));
        std::cout << "repaired design written to " << args.get("out")
                  << "\n";
    } else {
        std::cout << res->str("repaired_source");
    }
    return kExitRepairFound;
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
            std::cout << "job " << id;
            if (ev.has("island"))
                std::cout << " island " << ev.num("island")
                          << " epoch " << ev.num("epoch");
            std::cout << " gen " << ev.num("generation") << " best "
                      << ev.real("best_fitness") << " evals "
                      << ev.num("fitness_evals") << "\n"
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
        "           [--deadline S] [--mem-budget BYTES] "
        "[--early-abort 0|1] [--offspring N] [--lint 0|1]\n"
        "           [--snapshot f.snap] [--snapshot-every N] "
        "[--resume f.snap]\n"
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
        "  coordinator --listen ADDR --state-dir D "
        "[--local-workers N]\n"
        "           [--min-workers N] [--lease-seconds S] "
        "[admission flags as serve]\n"
        "  worker   --connect ADDR --work-dir D [--name NAME]\n"
        "  submit   --socket|--connect ADDR <repair inputs> "
        "[--priority N]\n"
        "           [--islands K] [--migration-interval N] "
        "[--migrants M]   (a coordinator shards K islands)\n"
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
        if (args.command == "coordinator")
            return cmdCoordinator(args);
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
