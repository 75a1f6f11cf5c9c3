#include "core/witness.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "lint/netgraph.h"
#include "verilog/parser.h"

namespace cirfix::core {

using verilog::Module;
using verilog::PortDir;
using verilog::SourceFile;

namespace {

/** Internal sampling clock of every generated bench: drives the DUT
 *  clock port (when one exists) and paces the TraceRecorder. */
constexpr const char *kBenchClock = "__wclk";

bool
isClockName(const std::string &name)
{
    std::string low;
    for (char c : name)
        low.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    return low == "clk" || low == "clock" || low == "mclk" ||
           low == "sysclk";
}

uint64_t
maskToWidth(uint64_t value, int width)
{
    if (width >= 64)
        return value;
    if (width <= 0)
        return value & 1;
    return value & ((1ull << width) - 1);
}

std::string
valueLiteral(uint64_t value, int width)
{
    int w = std::max(1, std::min(width, 64));
    return std::to_string(w) + "'d" +
           std::to_string(maskToWidth(value, w));
}

std::string
rangeDecl(int width)
{
    return width > 1 ? "[" + std::to_string(width - 1) + ":0] " : "";
}

} // namespace

WitnessInterface
deriveWitnessInterface(const SourceFile &file,
                       const std::string &dut_module)
{
    const Module *mod = file.findModule(dut_module);
    if (!mod)
        throw std::runtime_error("witness: no module '" + dut_module +
                                 "' in the design");
    lint::ModuleInfo info = lint::analyzeModule(*mod, file);

    WitnessInterface iface;
    iface.dutModule = dut_module;
    for (const verilog::Port &p : mod->ports) {
        int width = info.width(p.name).value_or(1);
        if (p.dir == PortDir::Input) {
            if (iface.clockPort.empty() && isClockName(p.name)) {
                iface.clockPort = p.name;
                continue;
            }
            iface.inputs.push_back(WitnessInput{p.name, width});
        } else {
            // Outputs and inouts are both observed (inouts are never
            // driven by the bench, so they behave as outputs here).
            iface.outputs.push_back(WitnessInput{p.name, width});
        }
    }
    return iface;
}

std::string
makeWitnessBenchSource(const WitnessInterface &iface,
                       const StepMatrix &steps,
                       const std::string &tb_module,
                       int clock_half_period)
{
    const int period = 2 * clock_half_period;
    std::ostringstream os;
    os << "module " << tb_module << ";\n";
    os << "  reg " << kBenchClock << ";\n";
    os << "  reg [31:0] __wstep;\n";
    for (const WitnessInput &in : iface.inputs)
        os << "  reg " << rangeDecl(in.width) << in.name << ";\n";
    for (const WitnessInput &out : iface.outputs)
        os << "  wire " << rangeDecl(out.width) << out.name << ";\n";
    os << "  " << iface.dutModule << " dut(";
    bool first = true;
    auto conn = [&](const std::string &port, const std::string &sig) {
        os << (first ? "" : ", ") << "." << port << "(" << sig << ")";
        first = false;
    };
    if (!iface.clockPort.empty())
        conn(iface.clockPort, kBenchClock);
    for (const WitnessInput &in : iface.inputs)
        conn(in.name, in.name);
    for (const WitnessInput &out : iface.outputs)
        conn(out.name, out.name);
    os << ");\n";
    os << "  initial " << kBenchClock << " = 0;\n";
    os << "  always #" << clock_half_period << " " << kBenchClock
       << " = !" << kBenchClock << ";\n";
    // Step k's inputs are applied at time k*period (k = 0 at time 0,
    // before the first posedge at half_period), so posedge k samples
    // the settled response to row k. $finish fires one period after
    // the last row was applied: the last sample has happened, the
    // next posedge never does.
    os << "  initial begin\n";
    for (size_t k = 0; k < steps.size(); ++k) {
        os << "    " << (k == 0 ? "" : "#" + std::to_string(period) + " ")
           << "__wstep = 32'd" << k << ";\n";
        for (size_t i = 0;
             i < iface.inputs.size() && i < steps[k].size(); ++i)
            os << "    " << iface.inputs[i].name << " = "
               << valueLiteral(steps[k][i], iface.inputs[i].width)
               << ";\n";
    }
    os << "    #" << period << " $finish;\n";
    os << "  end\n";
    os << "endmodule\n";
    return os.str();
}

sim::ProbeConfig
witnessProbe(const WitnessInterface &iface)
{
    sim::ProbeConfig probe;
    probe.clock = kBenchClock;
    for (const WitnessInput &out : iface.outputs)
        probe.signals.push_back(out.name);
    return probe;
}

GuardedRun
runWitnessBench(const std::string &dut_src, const OracleBench &bench,
                const sim::RunLimits &limits)
{
    return runGuarded(verilog::parse(dut_src + "\n" + bench.source),
                      bench.module, bench.probe, {}, limits);
}

StepMatrix
minimizeWitnessSteps(
    const StepMatrix &steps,
    const std::function<bool(const StepMatrix &)> &discriminates,
    int *tests_out)
{
    StepMatrix cur = steps;
    int tests = 0;
    auto check = [&](const StepMatrix &t) {
        ++tests;
        return discriminates(t);
    };
    auto without = [](const StepMatrix &m, size_t start, size_t len) {
        StepMatrix t;
        t.reserve(m.size() - len);
        for (size_t i = 0; i < m.size(); ++i)
            if (i < start || i >= start + len)
                t.push_back(m[i]);
        return t;
    };

    // Chunk phase: remove runs of rows, halving the chunk size each
    // time a full pass removes nothing. Never tests the empty matrix.
    for (size_t chunk = (cur.size() + 1) / 2;
         chunk >= 1 && cur.size() > 1;) {
        bool removed = false;
        for (size_t start = 0;
             start < cur.size() && cur.size() > 1;) {
            size_t len = std::min(chunk, cur.size() - start);
            if (len >= cur.size())
                break;  // removing everything is never a witness
            StepMatrix trial = without(cur, start, len);
            if (check(trial)) {
                cur = std::move(trial);
                removed = true;  // retry the same position
            } else {
                start += len;
            }
        }
        if (!removed) {
            if (chunk == 1)
                break;
            chunk = std::max<size_t>(1, chunk / 2);
        }
    }

    // 1-minimality sweep to a fixpoint: afterwards, removing any single
    // remaining row breaks discrimination (so re-minimizing an already
    // minimal stimulus is the identity).
    bool changed = cur.size() > 1;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < cur.size() && cur.size() > 1;) {
            StepMatrix trial = without(cur, i, 1);
            if (check(trial)) {
                cur = std::move(trial);
                changed = true;
            } else {
                ++i;
            }
        }
    }
    if (tests_out)
        *tests_out += tests;
    return cur;
}

WitnessSearchResult
findWitness(const std::string &golden_dut_src,
            const std::string &patched_dut_src,
            const std::string &dut_module, const WitnessOptions &opts,
            const std::string &tb_module, const std::string &provenance)
{
    WitnessSearchResult res;
    auto gfile = verilog::parse(golden_dut_src);
    WitnessInterface iface = deriveWitnessInterface(*gfile, dut_module);
    sim::ProbeConfig probe = witnessProbe(iface);

    auto benchFor = [&](const StepMatrix &steps) {
        OracleBench b;
        b.module = tb_module;
        b.source = makeWitnessBenchSource(iface, steps, tb_module,
                                          opts.clockHalfPeriod);
        b.probe = probe;
        return b;
    };

    // 1 = discriminates, 0 = agrees, -1 = golden run failed (an unusable
    // stimulus — skipped, never installed). A patched-design failure
    // under a stimulus the golden design survives IS discrimination:
    // the engine scores such a candidate as failed too.
    auto verdict = [&](const StepMatrix &steps,
                       Trace *patched_out) -> int {
        OracleBench b = benchFor(steps);
        GuardedRun golden =
            runWitnessBench(golden_dut_src, b, opts.simLimits);
        if (golden.outcome != EvalOutcome::Ok ||
            golden.trace.rows().empty())
            return -1;
        GuardedRun patched =
            runWitnessBench(patched_dut_src, b, opts.simLimits);
        if (patched.outcome != EvalOutcome::Ok)
            return 1;
        const bool agrees =
            evaluateFitness(patched.trace, golden.trace, opts.fitness)
                .plausible();
        if (patched_out)
            *patched_out = std::move(patched.trace);
        return agrees ? 0 : 1;
    };

    std::mt19937_64 rng(opts.seed);
    size_t max_cycles =
        static_cast<size_t>(std::max(1, opts.maxCycles));
    auto randomValue = [&](int width) {
        // Bias toward the boundary patterns (all-zeros, all-ones) that
        // exercise resets, carries and saturation; otherwise uniform.
        uint64_t r = rng();
        switch (r & 3) {
          case 0: return uint64_t{0};
          case 1: return maskToWidth(~uint64_t{0}, width);
          default: return maskToWidth(r >> 2, width);
        }
    };
    auto randomSteps = [&]() {
        StepMatrix m(1 + uniformIndex(rng, max_cycles));
        for (auto &row : m) {
            row.reserve(iface.inputs.size());
            for (const WitnessInput &in : iface.inputs)
                row.push_back(randomValue(in.width));
        }
        return m;
    };
    auto mutateSteps = [&](StepMatrix m) {
        switch (uniformIndex(rng, 3)) {
          case 0:  // grow: repeat the last row, then perturb below
            if (m.size() < max_cycles)
                m.push_back(m.back());
            [[fallthrough]];
          default:  // perturb one cell
            if (!iface.inputs.empty()) {
                size_t r = uniformIndex(rng, m.size());
                size_t c = uniformIndex(rng, iface.inputs.size());
                m[r][c] = randomValue(iface.inputs[c].width);
            }
            break;
          case 2:  // shrink
            if (m.size() > 1)
                m.erase(m.begin() +
                        static_cast<long>(uniformIndex(rng, m.size())));
            break;
        }
        return m;
    };

    // Coverage-guided random search: stimuli whose patched-design
    // response is novel (fresh trace fingerprint) seed the mutation
    // pool — behaviors near the edge of explored space are the most
    // likely to straddle a disagreement.
    std::vector<StepMatrix> pool;
    std::unordered_set<uint64_t> seen;
    StepMatrix winner;
    bool found = false;
    while (res.tries < opts.maxTries) {
        StepMatrix cand =
            !pool.empty() && uniformIndex(rng, 2) == 0
                ? mutateSteps(pool[uniformIndex(rng, pool.size())])
                : randomSteps();
        ++res.tries;
        Trace patched;
        int v = verdict(cand, &patched);
        if (v < 0)
            continue;
        if (seen.insert(fingerprintSource(patched.toCsv())).second)
            pool.push_back(cand);
        if (v == 1) {
            winner = std::move(cand);
            found = true;
            break;
        }
    }
    res.coveragePool = pool.size();
    if (!found)
        return res;

    res.stepsBeforeMin = winner.size();
    res.steps = minimizeWitnessSteps(
        winner,
        [&](const StepMatrix &s) {
            return !s.empty() && verdict(s, nullptr) == 1;
        },
        &res.minimizeTests);
    res.bench = benchFor(res.steps);
    res.bench.provenance = provenance;
    res.bench.oracle =
        runWitnessBench(golden_dut_src, res.bench, opts.simLimits).trace;
    res.found = true;
    return res;
}

void
rehardenSnapshot(const RepairEngine &engine, EngineState &state)
{
    state.witnesses = engine.config().witnessBenches;
    // Every cached fitness was scored under the old oracle — drop the
    // entries (the stats remain as history; future lookups just miss).
    state.cache.clear();
    // Re-score the population under the hardened oracle. Counter- and
    // cache-free by design (evaluateUncached), so the snapshot's
    // counters still describe exactly the work the original run did.
    double best = -1.0;
    for (Variant &v : state.population) {
        v = engine.evaluateUncached(v.patch);
        best = std::max(best, v.fit.fitness);
    }
    // bestSeen restarts at the hardened population's honest maximum:
    // the demoted patch no longer holds the high-water mark, so the
    // resumed trajectory records genuine progress under the new oracle.
    if (!state.population.empty())
        state.bestSeen = best;
}

HardenedRepairResult
hardenedRepair(const Scenario &scenario, const EngineConfig &config,
               const WitnessOptions &opts)
{
    HardenedRepairResult out;
    EngineConfig cfg = config;
    cfg.snapshotOnWin = !cfg.snapshotPath.empty();
    bool have_snapshot = false;
    const std::string &dut = scenario.project->dutModule;

    while (true) {
        ++out.rounds;
        RepairEngine engine = scenario.makeEngine(cfg);
        if (have_snapshot) {
            EngineState st = loadSnapshot(cfg.snapshotPath);
            rehardenSnapshot(engine, st);
            ++out.resumedFromSnapshot;
            out.result = engine.resume(st);
        } else {
            out.result = engine.run();
        }
        out.result.overfitKills = out.overfitKills;
        if (!out.result.found)
            break;
        out.correct =
            checkCorrectness(scenario, out.result.patch, cfg.simLimits);
        if (out.correct)
            break;
        if (out.overfitKills >= opts.maxRounds)
            break;  // hardening budget exhausted: plausible-only

        // The winner overfits: hunt for a stimulus that separates it
        // from the golden design. A fresh deterministic RNG stream per
        // round keeps the whole loop a pure function of (seed, design).
        WitnessOptions wo = opts;
        wo.seed = opts.seed + static_cast<uint64_t>(out.overfitKills);
        std::string tb_name =
            "__cirfix_witness" + std::to_string(out.witnesses.size());
        std::string prov =
            (scenario.defect ? scenario.defect->id
                             : scenario.project->name) +
            ": hardening round " + std::to_string(out.rounds) +
            " against an overfit patch with " +
            std::to_string(out.result.patch.edits.size()) + " edit(s)";
        WitnessSearchResult ws =
            findWitness(scenario.project->goldenSource,
                        patchedDutSource(scenario, out.result.patch),
                        dut, wo, tb_name, prov);
        out.witnessTries += ws.tries;
        if (!ws.found)
            break;  // no discriminating stimulus: report as-is

        ++out.overfitKills;
        out.witnesses.push_back(ws.bench);
        cfg.witnessBenches.push_back(ws.bench);
        have_snapshot = cfg.snapshotOnWin;
    }
    out.result.witnessBenches =
        static_cast<int>(cfg.witnessBenches.size());
    out.result.overfitKills = out.overfitKills;
    return out;
}

} // namespace cirfix::core
