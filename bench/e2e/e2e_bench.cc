/**
 * @file
 * End-to-end time-to-repair benchmark. One process runs one workload
 * (see README.md for the workloads, the metric catalogue and how to run
 * it):
 *
 *   e2e_bench --workload repair|exhaust|islands|service [--seed N]
 *             [--seconds S] [--trace 0|1] [--trace-file F] [--out F]
 *             [--smoke] [--work-dir D]
 *
 * A run is R rounds; round r repairs every defect of the workload once
 * with GA seed 1000 + 7919 r, the trial seeds of bench/common.h, in an
 * order shuffled by --seed. R is the fewest rounds that fill --seconds
 * at the workload's mean round time on the reference host, so the work
 * of a run is fixed by (workload, --seconds) and --seed changes only the
 * order. Searches are bounded by generations, never by wall clock, so
 * outcomes and counts are identical in every run; only timings vary.
 * (With a GA seed drawn from --seed instead, the run-to-run spread of
 * every timing was 26-42%: whether a search repairs at generation 0 or
 * runs out its budget dominates.)
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and metrics (end-to-end metrics untraced, per-layer
 * metrics with --trace 1). Exit codes: 0 ok, 1 a correctness check
 * failed, 2 usage error, 3 unoptimized build, 4 internal error,
 * 130 interrupted.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <random>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "benchmarks/registry.h"
#include "core/fitness.h"
#include "core/island.h"
#include "core/snapshot.h"
#include "e2e_bench.h"
#include "service/json.h"
#include "service/session.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

namespace cirfix::e2e {

std::atomic<bool> g_interrupted{false};

long
Tracer::add(Span s)
{
    if (!on_)
        return s.id;
    if (s.id == 0)
        s.id = newId();
    long id = s.id;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
Tracer::chromeJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%ld,"
                      "\"parent\":%ld",
                      s.name.c_str(), s.tid,
                      1e6 * secondsBetween(origin_, s.start),
                      1e6 * s.seconds(), s.id, s.parent);
        out += buf;
        for (const auto &[k, v] : s.counts) {
            std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", k.c_str(), v);
            out += buf;
        }
        out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    }
    out += "]}\n";
    return out;
}

} // namespace cirfix::e2e

namespace {

using namespace cirfix;
using namespace cirfix::e2e;
using service::Json;
namespace fs = std::filesystem;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Linear-interpolated quantile of @p v (0 for an empty vector). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    if (std::isinf(v[hi]))
        return pos == static_cast<double>(lo) ? v[lo] : v[hi];
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Digest of a request's deterministic outcome (see Request::digest). */
uint64_t
outcomeDigest(bool found, const std::string &repairedSource,
              int generations, long evalsOrFingerprint)
{
    return core::fingerprintSource(
        std::string(found ? "found\n" : "none\n") +
        (found ? repairedSource : std::string()) + "\n" +
        std::to_string(generations) + "\n" +
        std::to_string(evalsOrFingerprint));
}

int
nproc()
{
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/** One workload: which defects, and the search every request runs. */
struct Workload
{
    std::string name;
    std::string why;
    std::vector<std::string> defects;
    int popSize = 500;
    int maxGenerations = 10;
    int threads = 1;        //!< engine threads per run (per island)
    int islands = 0;        //!< > 0: runIslands with this K
    int migrationInterval = 2;
    int migrantsPerIsland = 2;
    bool service = false;   //!< requests go through `cirfix serve`
    int workers = 2;        //!< daemon worker threads
    int clients = 4;        //!< closed-loop client connections
    bool checkCorrect = false;  //!< held-out check of each repair
    /** Mean wall time of one round on the reference host (4-core Xeon
     *  VM, Release); sets how many rounds fill --seconds. */
    double roundSeconds = 1;
};

/** GA seed of round @p r: trial r of bench/common.h. */
uint64_t
trialSeed(int r)
{
    return 1000 + 7919ull * static_cast<uint64_t>(r);
}

std::vector<Workload>
workloads(bool smoke)
{
    const std::vector<std::string> table3 = {
        "decoder_numeric_errors", "counter_sensitivity",
        "counter_incorrect_reset", "counter_increment",
        "flipflop_conditional", "flipflop_branches_swapped",
        "fsm_case_statement", "fsm_blocking_assignments",
        "fsm_missing_next_state_default",
        "fsm_missing_assign_sensitivity", "lshift_blocking",
        "lshift_conditional", "lshift_sensitivity", "mux_hex_constants",
        "mux_numeric_errors", "i2c_sensitivity", "i2c_address_assignment",
        "i2c_no_ack", "sha3_loop_bound", "sha3_overflow_check",
        "rs_register_size", "rs_out_stage_sensitivity",
        "sdram_sync_reset"};
    std::vector<Workload> w(4);

    w[0].name = "repair";
    w[0].why = "time to a plausible and a correct repair on the paper's "
               "suite, one search at a time on one thread";
    w[0].defects = table3;
    w[0].checkCorrect = true;
    w[0].roundSeconds = 13.2;

    w[1].name = "exhaust";
    w[1].why = "budget-bound search on designs never repaired; simulation "
               "dominates and the evaluation pool uses every core";
    w[1].defects = {"decoder_incorrect_assignment", "mux_1bit_output",
                    "sha3_negation", "sha3_wire_assign",
                    "tate_shift_logic", "tate_shift_operator",
                    "tate_instantiation", "sdram_numeric_definitions",
                    "sdram_case_statement"};
    w[1].maxGenerations = 8;
    w[1].threads = std::min(4, nproc());
    w[1].roundSeconds = 14.3;

    w[2].name = "islands";
    w[2].why = "four migrating subpopulations per repair, coupled by the "
               "epoch barrier and the shared fitness store";
    w[2].defects = {"counter_incorrect_reset", "decoder_numeric_errors",
                    "fsm_case_statement", "fsm_missing_assign_sensitivity",
                    "fsm_missing_next_state_default", "mux_hex_constants",
                    "mux_numeric_errors", "sdram_sync_reset"};
    w[2].popSize = 125;
    w[2].islands = 4;
    w[2].roundSeconds = 1.48;

    w[3].name = "service";
    w[3].why = "repairs as daemon jobs: admission, framing, golden-trace "
               "recording and a snapshot per generation, jobs queueing";
    w[3].defects = table3;
    w[3].popSize = 200;
    w[3].maxGenerations = 6;
    w[3].service = true;
    w[3].workers = std::min(2, nproc());
    w[3].clients = std::min(4, nproc());
    w[3].roundSeconds = 3.63;

    if (smoke) {
        w[0].defects = {"counter_sensitivity", "flipflop_conditional"};
        w[1].defects = {"decoder_incorrect_assignment"};
        w[2].defects = {"counter_sensitivity", "mux_hex_constants"};
        w[3].defects = {"counter_sensitivity", "flipflop_conditional"};
        for (Workload &x : w) {
            x.popSize = x.islands > 0 ? 20 : 40;
            x.maxGenerations = 3;
        }
    }
    return w;
}

core::EngineConfig
engineConfig(const Workload &w, uint64_t seed)
{
    core::EngineConfig cfg;
    cfg.popSize = w.popSize;
    cfg.maxGenerations = w.maxGenerations;
    cfg.numThreads = w.threads;
    cfg.seed = seed;
    // Generations bound every search; the wall clock never does.
    cfg.maxSeconds = 1e9;
    cfg.shouldStop = [] { return g_interrupted.load(); };
    return cfg;
}

core::IslandConfig
islandConfig(const Workload &w)
{
    core::IslandConfig ic;
    ic.islands = w.islands;
    ic.migrationInterval = w.migrationInterval;
    ic.migrantsPerIsland = w.migrantsPerIsland;
    return ic;
}

/** The module a scenario's repair edits. */
std::string
dutOf(const core::Scenario &sc)
{
    return sc.defect->repairModule.empty() ? sc.project->dutModule
                                           : sc.defect->repairModule;
}

service::JobSpec
jobSpec(const Workload &w, const core::Scenario &sc, uint64_t seed)
{
    service::JobSpec spec;
    spec.designSource =
        core::applyRewrites(sc.project->goldenSource,
                            sc.defect->rewrites) +
        "\n" + sc.project->testbenchSource;
    spec.goldenSource = sc.project->goldenSource;
    spec.tbModule = sc.project->tbModule;
    spec.dutModule = dutOf(sc);
    spec.params.popSize = w.popSize;
    spec.params.maxGenerations = w.maxGenerations;
    spec.params.numThreads = w.threads;
    spec.params.seed = seed;
    // Under the daemon's 3600 s admission cap; generations bound the
    // search long before.
    spec.params.maxSeconds = 3000;
    return spec;
}

/**
 * Times the engine's phases through its public hooks: a fleetLookup
 * that answers nothing and a no-op fleetPublish leave the search
 * bit-identical (engine.h), and mark where a batch's evaluation starts
 * and ends; onGeneration marks the end of the merge.
 */
class PhaseProbe
{
  public:
    PhaseProbe(Tracer &tracer, long parent) : tracer_(tracer), parent_(parent)
    {}

    void
    attach(core::EngineConfig &cfg)
    {
        cfg.fleetLookup = [this](const std::vector<std::string> &keys,
                                 auto *, auto *) {
            close("engine.plan", Event::Lookup, keys.size());
        };
        cfg.fleetPublish = [this](const auto &, const auto &) {
            close("engine.evaluate", Event::Publish, 0);
        };
        cfg.onGeneration = [this](const core::GenerationStats &) {
            close(last_ == Event::Publish  ? "engine.merge"
                  : last_ == Event::Lookup ? "engine.evaluate"
                                           : "engine.plan",
                  Event::Generation, 0);
        };
    }

    void start() { mark_ = Clock::now(); }
    void finish() { close("engine.finish", Event::Finish, 0); }

  private:
    enum class Event { Start, Lookup, Publish, Generation, Finish };

    void
    close(const char *name, Event ev, size_t keys)
    {
        Clock::time_point now = Clock::now();
        Counts counts;
        if (ev == Event::Lookup)
            counts.emplace_back("keys", static_cast<double>(keys));
        tracer_.add(Span{name, mark_, now, 0, parent_, 0, counts});
        mark_ = now;
        last_ = ev;
    }

    Tracer &tracer_;
    long parent_;
    Clock::time_point mark_ = Clock::now();
    Event last_ = Event::Start;
};

/** A plain RepairEngine::run() on scenario @p defect, with its phases
 *  traced when asked. */
core::RepairResult
runEngine(const std::shared_ptr<const verilog::SourceFile> &faulty,
          const std::string &tb, const std::string &dut,
          const sim::ProbeConfig &probe, const core::Trace &oracle,
          core::EngineConfig cfg, size_t defect, Tracer &tracer, long parent,
          bool phases)
{
    const long id = tracer.newId();
    PhaseProbe probeHooks(tracer, id);
    if (phases)
        probeHooks.attach(cfg);
    core::RepairEngine engine(faulty, tb, dut, probe, oracle, cfg);
    Clock::time_point t0 = Clock::now();
    probeHooks.start();
    core::RepairResult res = engine.run();
    if (phases)
        probeHooks.finish();
    tracer.add(Span{"engine.run", t0, Clock::now(), id, parent, 0,
                    {{"defect", static_cast<double>(defect)},
                     {"evals", static_cast<double>(res.fitnessEvals)},
                     {"threads", static_cast<double>(cfg.numThreads)},
                     {"cache_hits", static_cast<double>(res.cache.hits)},
                     {"cache_misses", static_cast<double>(res.cache.misses)},
                     {"early_aborts", static_cast<double>(res.earlyAborts)}}});
    return res;
}

/** Evaluations each island ran in one migration epoch (island ->
 *  evals), one entry per epoch that every island completed. */
using EpochEvals = std::vector<std::map<int, long>>;

/** Everything one run of a workload needs besides its config. */
struct Context
{
    Workload w;
    std::vector<core::Scenario> scenarios;
    std::vector<service::JobInputs> jobInputs;  //!< service workload
    /** order[r][p]: scenario of the p-th request of round r. */
    std::vector<std::vector<size_t>> order;

    long requests() const
    {
        return static_cast<long>(order.size() * scenarios.size());
    }
};

/** Rounds of the seed-shuffled defect order (Fisher-Yates). */
std::vector<std::vector<size_t>>
shuffledRounds(size_t defects, int rounds, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<std::vector<size_t>> order(static_cast<size_t>(rounds));
    for (std::vector<size_t> &round : order) {
        for (size_t i = 0; i < defects; ++i)
            round.push_back(i);
        for (size_t i = defects; i > 1; --i)
            std::swap(round[i - 1], round[rng() % i]);
    }
    return order;
}

int
roundOf(const Context &ctx, long index)
{
    return static_cast<int>(index / static_cast<long>(ctx.scenarios.size()));
}

size_t
defectOf(const Context &ctx, long index)
{
    return ctx.order[static_cast<size_t>(roundOf(ctx, index))]
                    [static_cast<size_t>(
                        index % static_cast<long>(ctx.scenarios.size()))];
}

const core::Scenario &
scenarioOf(const Context &ctx, long index)
{
    return ctx.scenarios[defectOf(ctx, index)];
}

uint64_t
seedOf(const Context &ctx, long index)
{
    return trialSeed(roundOf(ctx, index));
}

/** One in-process request (repair, exhaust or islands workload). */
Request
runRequest(const Context &ctx, long index, Tracer &tracer, bool phases,
           EpochEvals *epochs)
{
    const Workload &w = ctx.w;
    const core::Scenario &sc = scenarioOf(ctx, index);
    Request r;
    r.index = index;
    r.round = roundOf(ctx, index);
    r.defect = sc.defect->id;
    r.seed = seedOf(ctx, index);
    core::EngineConfig cfg = engineConfig(w, r.seed);
    const long id = tracer.newId();
    Clock::time_point t0 = Clock::now();

    if (w.islands > 0) {
        std::map<int, Clock::time_point> lastGen;
        std::map<int, long> evalsAtEpoch;
        std::map<int, int> epochOf;
        std::map<int, std::map<int, long>> delta;  // epoch -> island
        // runIslands serializes onGeneration calls.
        auto onGen = [&](const core::GenerationStats &gs) {
            Clock::time_point now = Clock::now();
            auto last = lastGen.find(gs.island);
            Clock::time_point from = last == lastGen.end() ? t0 : last->second;
            tracer.add(Span{"island.generation", from, now, 0, id,
                            gs.island + 1,
                            {{"generation", gs.generation},
                             {"evals",
                              static_cast<double>(gs.fitnessEvals)}}});
            lastGen[gs.island] = now;
            if (gs.epoch > epochOf[gs.island]) {
                delta[gs.epoch][gs.island] =
                    gs.fitnessEvals - evalsAtEpoch[gs.island];
                evalsAtEpoch[gs.island] = gs.fitnessEvals;
                epochOf[gs.island] = gs.epoch;
            }
        };
        core::IslandOutcome out = core::runIslands(
            sc.faulty, sc.project->tbModule, dutOf(sc), sc.probe, sc.oracle,
            cfg, islandConfig(w), "", onGen,
            [] { return g_interrupted.load(); });
        r.seconds = secondsBetween(t0, Clock::now());
        for (auto &[epoch, islands] : delta)
            if (epochs && static_cast<int>(islands.size()) == w.islands)
                epochs->push_back(islands);
        r.found = out.found;
        r.generations = out.result.generations;
        for (const core::IslandStats &st : out.islands) {
            r.evals += st.fitnessEvals;
            r.sharedHits += st.fleetCacheHits;
        }
        r.repairedSource = out.result.repairedSource;
        // Island work counters depend on timing (shared-store hits);
        // the fingerprint is the run's deterministic identity.
        r.digest = outcomeDigest(r.found, r.repairedSource, r.generations,
                                 static_cast<long>(out.fingerprint));
        tracer.add(Span{"request", t0, Clock::now(), id, 0, 0,
                        {{"index", static_cast<double>(index)},
                         {"evals", static_cast<double>(r.evals)},
                         {"shared_hits", static_cast<double>(r.sharedHits)}}});
        return r;
    }

    core::RepairResult res =
        runEngine(sc.faulty, sc.project->tbModule, dutOf(sc), sc.probe,
                  sc.oracle, cfg, defectOf(ctx, index), tracer, id, phases);
    Clock::time_point t1 = Clock::now();
    r.seconds = secondsBetween(t0, t1);
    r.found = res.found;
    r.generations = res.generations;
    r.evals = res.fitnessEvals;
    r.repairedSource = res.repairedSource;
    r.digest = outcomeDigest(r.found, r.repairedSource, r.generations,
                             r.evals);
    if (w.checkCorrect && res.found) {
        r.correct = core::checkCorrectness(sc, res.patch);
        Clock::time_point t2 = Clock::now();
        r.correctSeconds = secondsBetween(t0, t2);
        tracer.add(Span{"correctness.check", t1, t2, 0, id, 0, {}});
    }
    tracer.add(Span{"request", t0, t1, id, 0, 0,
                    {{"index", static_cast<double>(index)},
                     {"evals", static_cast<double>(r.evals)}}});
    return r;
}

double
cpuSecondsSelf()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMbSelf()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The workload's scenarios: its in-process set-up. */
std::vector<core::Scenario>
buildScenarios(const Workload &w, Tracer &tracer, double *seconds)
{
    std::vector<core::Scenario> out;
    Clock::time_point t0 = Clock::now();
    for (const std::string &id : w.defects) {
        const core::DefectSpec &d = bench::getDefect(id);
        out.push_back(core::buildScenario(bench::getProject(d.project), d));
    }
    Clock::time_point t1 = Clock::now();
    *seconds = secondsBetween(t0, t1);
    tracer.add(Span{"setup.scenarios", t0, t1, 0, 0, 0, {}});
    return out;
}

/**
 * The timed loop of an in-process workload: every request of the run,
 * one at a time. With @p setupSeconds, the scenarios are built again
 * after every request, timed, and left out of @p wall and @p cpu: the
 * host's speed drifts over seconds, so builds spread over the run give
 * a steadier median than back-to-back ones. The heap is trimmed between
 * requests, as if each ran in its own `cirfix repair` process.
 */
std::vector<Request>
inProcessLoop(const Context &ctx, Tracer &tracer, bool phases,
              EpochEvals *epochs, std::vector<double> *setupSeconds,
              double *wall, double *cpu)
{
    std::vector<Request> out;
    double setupWall = 0, setupCpu = 0;
    const double cpu0 = cpuSecondsSelf();
    Clock::time_point start = Clock::now();
    for (long j = 0; j < ctx.requests() && !g_interrupted; ++j) {
        out.push_back(runRequest(ctx, j, tracer, phases, epochs));
        malloc_trim(0);
        if (setupSeconds) {
            const double c0 = cpuSecondsSelf();
            const Clock::time_point t0 = Clock::now();
            double s = 0;
            buildScenarios(ctx.w, tracer, &s);
            malloc_trim(0);
            setupSeconds->push_back(s);
            setupWall += secondsBetween(t0, Clock::now());
            setupCpu += cpuSecondsSelf() - c0;
        }
    }
    *wall = secondsBetween(start, Clock::now()) - setupWall;
    *cpu = cpuSecondsSelf() - cpu0 - setupCpu;
    return out;
}

/**
 * Re-simulate a reported repair through public functions: parse the
 * repaired design, elaborate it under the repair testbench, and score
 * it against the oracle. A plausible repair must score fitness 1.0.
 */
bool
resimulatesPlausible(const std::string &source, const std::string &tb,
                     const sim::ProbeConfig &probe,
                     const core::Trace &oracle)
{
    try {
        std::shared_ptr<const verilog::SourceFile> file =
            verilog::parse(source);
        auto design = sim::elaborate(file, tb);
        sim::TraceRecorder rec(*design, probe);
        core::EngineConfig defaults;
        design->run(defaults.simLimits);
        core::FitnessResult fit =
            core::evaluateFitness(rec.takeTrace(), oracle, defaults.fitness);
        return fit.plausible() && fit.fitness == 1.0;
    } catch (const std::exception &) {
        return false;
    }
}

// ------------------------------------------------------------ metrics

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> v;
    for (const Span &s : spans)
        if (s.name == name)
            v.push_back(s.seconds());
    return v;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

double
countOf(const Span &s, const std::string &key)
{
    for (const auto &[k, v] : s.counts)
        if (k == key)
            return v;
    return 0;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** Latency quantile with failed requests ranked as +inf. An infinite
 *  answer (more than 1-q of the requests failed) is reported as the
 *  loop's whole wall time, a lower bound. */
double
latencyQuantile(const std::vector<Request> &rs, double q, double wall,
                bool foundOnly = false, bool correctOnly = false)
{
    std::vector<double> v;
    for (const Request &r : rs) {
        bool miss = r.failed || (foundOnly && !r.found) ||
                    (correctOnly && !r.correct);
        v.push_back(miss ? kInf
                         : correctOnly ? r.correctSeconds : r.seconds);
    }
    double x = quantile(v, q);
    return std::isinf(x) ? wall : x;
}

std::vector<Metric>
layerMetrics(const std::vector<Span> &spans, double overhead,
             double scenarioBuild)
{
    std::vector<Metric> m;
    auto p50us = [&](const std::string &name) {
        return 1e6 * quantile(durations(spans, name), 0.5);
    };
    const double total = sum(durations(spans, "candidate"));
    for (const char *layer :
         {"patch.apply", "verilog.validate", "lint.prescreen",
          "sim.elaborate", "sim.run", "fitness.score"}) {
        m.push_back({std::string(layer) + "_us", p50us(layer), "us"});
        m.push_back({std::string(layer) + "_share",
                     ratio(sum(durations(spans, layer)), total),
                     "fraction"});
    }
    m.push_back({"candidate.total_us", p50us("candidate"), "us"});
    m.push_back({"faultloc.localize_us", p50us("faultloc.localize"), "us"});
    m.push_back({"mutation.propose_us", p50us("mutation.propose"), "us"});

    double cands = 0, ok = 0, invalid = 0, lintRej = 0, simFail = 0;
    for (const Span &s : spans) {
        if (s.name != "candidate")
            continue;
        ++cands;
        ok += countOf(s, "ok");
        invalid += countOf(s, "invalid");
        lintRej += countOf(s, "lint_reject");
        simFail += countOf(s, "sim_fail");
    }
    m.push_back({"candidate.ok_ratio", ratio(ok, cands), "fraction"});
    m.push_back({"verilog.invalid_ratio", ratio(invalid, cands), "fraction"});
    m.push_back({"lint.reject_ratio", ratio(lintRej, cands), "fraction"});
    m.push_back({"sim.fail_ratio", ratio(simFail, cands), "fraction"});

    // Mean replayed candidate time per defect, the cost an evaluation
    // would have on an idle pool.
    std::map<long, double> defectOfReplay;
    for (const Span &s : spans)
        if (s.name == "replay")
            defectOfReplay[s.id] = countOf(s, "defect");
    std::map<double, std::pair<double, double>> candidateTime;
    for (const Span &s : spans)
        if (s.name == "candidate") {
            auto &[seconds, n] = candidateTime[defectOfReplay[s.parent]];
            seconds += s.seconds();
            n += 1;
        }

    double runs = 0, runSeconds = 0, evals = 0, hits = 0, misses = 0,
           aborts = 0, idealEvalSeconds = 0, threadEvalSeconds = 0;
    std::map<long, double> threadsOf;
    for (const Span &s : spans) {
        if (s.name != "engine.run")
            continue;
        ++runs;
        runSeconds += s.seconds();
        evals += countOf(s, "evals");
        hits += countOf(s, "cache_hits");
        misses += countOf(s, "cache_misses");
        aborts += countOf(s, "early_aborts");
        threadsOf[s.id] = countOf(s, "threads");
        const auto &[seconds, n] = candidateTime[countOf(s, "defect")];
        idealEvalSeconds += countOf(s, "evals") * ratio(seconds, n);
    }
    std::map<std::string, double> phase;
    for (const Span &s : spans) {
        if (s.name.rfind("engine.", 0) != 0 || s.name == "engine.run")
            continue;
        phase[s.name] += s.seconds();
        if (s.name == "engine.evaluate")
            threadEvalSeconds += s.seconds() * threadsOf[s.parent];
    }
    for (const char *p :
         {"engine.plan", "engine.evaluate", "engine.merge", "engine.finish"})
        m.push_back({std::string(p) + "_s", ratio(phase[p], runs), "s"});
    m.push_back({"engine.eval_share",
                 ratio(phase["engine.evaluate"], runSeconds), "fraction"});
    m.push_back({"evalpool.utilization",
                 ratio(idealEvalSeconds, threadEvalSeconds), "fraction"});
    m.push_back({"cache.hit_ratio", ratio(hits, hits + misses), "fraction"});
    m.push_back({"engine.early_abort_ratio", ratio(aborts, evals),
                 "fraction"});
    m.push_back({"scenario.build_s", scenarioBuild, "s"});
    m.push_back({"trace.overhead_ratio", overhead, "ratio"});
    return m;
}

// ------------------------------------------------------------- output

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
gitCommit()
{
    const std::string root = CIRFIX_ROOT;
    if (!fs::exists(fs::path(root) / ".git"))
        return "unknown";
    std::string cmd = "git -C '" + root + "' rev-parse HEAD 2>/dev/null";
    std::string out;
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[128];
        while (fgets(buf, sizeof buf, p))
            out += buf;
        pclose(p);
    }
    while (!out.empty() &&
           std::isspace(static_cast<unsigned char>(out.back())))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Json
requestJson(const Request &r)
{
    Json j = Json::object();
    j["index"] = r.index;
    j["round"] = r.round;
    j["defect"] = r.defect;
    j["seed"] = static_cast<long long>(r.seed);
    j["failed"] = r.failed;
    if (r.failed)
        j["error"] = r.error;
    j["found"] = r.found;
    j["correct"] = r.correct;
    j["generations"] = r.generations;
    j["evals"] = r.evals;
    j["digest"] = hex(r.digest);
    j["seconds"] = r.seconds;
    return j;
}

Json
metricsJson(const std::vector<Metric> &ms)
{
    Json j = Json::object();
    for (const Metric &m : ms) {
        Json v = Json::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        j[m.name] = std::move(v);
    }
    return j;
}

/** Digest over requests in (round, defect) order, so runs that issue
 *  the same requests in another order agree. */
uint64_t
digestOf(const std::vector<Request> &rs)
{
    std::vector<std::string> keyed;
    for (const Request &r : rs)
        keyed.push_back(std::to_string(r.round) + "/" + r.defect + "/" +
                        hex(r.digest));
    std::sort(keyed.begin(), keyed.end());
    std::string all;
    for (const std::string &k : keyed)
        all += k + "\n";
    return core::fingerprintSource(all);
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 14;
    bool trace = false;
    std::string traceFile;
    std::string out;
    std::string workDir;
    bool smoke = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "e2e_bench: " << why
              << "\nusage: e2e_bench --workload repair|exhaust|islands|"
                 "service [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--trace-file F] [--out F] [--smoke] "
                 "[--work-dir D]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--trace-file")
                o.traceFile = value();
            else if (a == "--out")
                o.out = value();
            else if (a == "--work-dir")
                o.workDir = value();
            else if (a == "--smoke")
                o.smoke = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.workDir.empty())
        o.workDir = fs::path(argv[0]).parent_path().string();
    if (o.workDir.empty())
        o.workDir = ".";
    if (o.trace && o.traceFile.empty())
        o.traceFile =
            (fs::path(o.workDir) / ("e2e-trace-" + o.workload + ".json"))
                .string();
    return o;
}

void
onSignal(int)
{
    g_interrupted = true;
    if (pid_t pid = g_daemonPid.load())
        kill(pid, SIGTERM);
}

/** Correctness findings of one run; any finding fails it. */
struct Checks
{
    std::vector<std::string> problems;

    void fail(std::string p) { problems.push_back(std::move(p)); }
    bool ok() const { return problems.empty(); }
};

/** What the measured part of a run produced. */
struct Measured
{
    std::vector<Request> warmup, requests;
    /** Untraced re-run of the same requests (--trace 1 only). */
    std::vector<Request> rerun;
    std::vector<double> setupSeconds;
    double wall = 0, rerunWall = 0;
    double cpu = 0;       //!< CPU seconds of the process doing the work
    double peakRssMb = 0;
    Json extras = Json::object();
};

Measured
measureService(const Context &ctx, const Options &opt, Tracer &tracer)
{
    ServiceLoad load;
    load.cirfixBin = CIRFIX_BIN;
    load.workDir = opt.workDir;
    load.workers = ctx.w.workers;
    load.clients = ctx.w.clients;
    load.count = ctx.requests();
    load.job = [&ctx](long j) {
        return jobSpec(ctx.w, scenarioOf(ctx, j), seedOf(ctx, j));
    };
    ServiceRun sr = runServiceLoad(load, tracer, opt.trace);

    Measured m;
    m.setupSeconds = sr.setupSeconds;
    m.warmup = std::move(sr.warmup);
    m.requests = std::move(sr.requests);
    m.rerun = std::move(sr.rerun);
    m.wall = sr.wallSeconds;
    m.rerunWall = sr.rerunWallSeconds;
    m.cpu = sr.daemonCpuSeconds;
    m.peakRssMb = sr.daemonPeakRssMb;
    for (std::vector<Request> *rs : {&m.warmup, &m.requests, &m.rerun})
        for (Request &r : *rs) {
            r.round = roundOf(ctx, r.index);
            r.defect = scenarioOf(ctx, r.index).defect->id;
            r.digest = outcomeDigest(r.found, r.repairedSource,
                                     r.generations, r.evals);
        }
    std::vector<double> queue, runS, overhead, submit, result;
    for (const Request &r : m.requests) {
        if (r.failed)
            continue;
        queue.push_back(r.queueWaitS);
        runS.push_back(r.runS);
        overhead.push_back(r.seconds - r.queueWaitS - r.engineSeconds);
        submit.push_back(r.submitMs);
        result.push_back(r.resultMs);
    }
    m.extras["service.submit_ms"] = quantile(submit, 0.5);
    m.extras["service.result_ms"] = quantile(result, 0.5);
    m.extras["service.queue_wait_s"] = quantile(queue, 0.5);
    m.extras["service.run_s"] = quantile(runS, 0.5);
    m.extras["service.overhead_s"] = quantile(overhead, 0.5);
    m.extras["snapshot.bytes_per_job"] = sr.snapshotBytes;
    m.extras["snapshot.load_ms"] = sr.snapshotLoadMs;
    m.extras["snapshot.encode_ms"] = sr.snapshotEncodeMs;
    m.extras["snapshot.decode_ms"] = sr.snapshotDecodeMs;
    return m;
}

Measured
measureInProcess(const Context &ctx, const Options &opt, Tracer &tracer,
                 double firstSetup)
{
    Measured m;
    m.setupSeconds.push_back(firstSetup);
    {
        Tracer off(false);
        m.warmup.push_back(runRequest(ctx, 0, off, false, nullptr));
        malloc_trim(0);
    }
    EpochEvals epochs;
    m.requests = inProcessLoop(ctx, tracer, opt.trace && ctx.w.islands == 0,
                               &epochs, &m.setupSeconds, &m.wall, &m.cpu);
    if (opt.trace) {
        Tracer off(false);
        double cpu = 0;
        m.rerun = inProcessLoop(ctx, off, false, nullptr, nullptr,
                                &m.rerunWall, &cpu);
    }
    m.peakRssMb = peakRssMbSelf();
    if (ctx.w.islands > 0) {
        // Barrier imbalance: sum over epochs of the busiest island's
        // evaluations over the mean island's.
        double maxSum = 0, meanSum = 0, shared = 0, evals = 0;
        for (const std::map<int, long> &islands : epochs) {
            long most = 0, total = 0;
            for (const auto &[island, n] : islands) {
                most = std::max(most, n);
                total += n;
            }
            maxSum += static_cast<double>(most);
            meanSum += static_cast<double>(total) /
                       static_cast<double>(islands.size());
        }
        for (const Request &r : m.requests) {
            shared += static_cast<double>(r.sharedHits);
            evals += static_cast<double>(r.evals);
        }
        m.extras["island.epoch_imbalance"] = ratio(maxSum, meanSum);
        m.extras["island.shared_hit_ratio"] = ratio(shared, evals);
    }
    return m;
}

/**
 * The traced run's extra work: plain engine runs with phase spans where
 * the measured requests are not plain runs (the service's jobs run in
 * the daemon; runIslands wires the engine hooks itself), the
 * candidate-layer replay, and the check that tracing changed no
 * outcome.
 */
void
traceLayers(const Context &ctx, const Measured &m, Tracer &tracer,
            Checks &checks)
{
    const Workload &w = ctx.w;
    if (w.service || w.islands > 0) {
        // One round. For the service these double as the check that a
        // daemon run and a direct run of one job end the same way.
        const long n = std::min<long>(static_cast<long>(m.requests.size()),
                                      static_cast<long>(w.defects.size()));
        for (long j = 0; j < n; ++j) {
            const core::Scenario &sc = scenarioOf(ctx, j);
            core::RepairResult res;
            if (w.service) {
                service::JobSpec spec = jobSpec(w, sc, seedOf(ctx, j));
                const service::JobInputs &in = ctx.jobInputs[defectOf(ctx, j)];
                res = runEngine(in.faulty, spec.tbModule, spec.dutModule,
                                in.probe, in.oracle,
                                service::engineConfigFromSpec(spec),
                                defectOf(ctx, j), tracer, 0, true);
            } else {
                res = runEngine(sc.faulty, sc.project->tbModule, dutOf(sc),
                                sc.probe, sc.oracle,
                                core::deriveIslandEngineConfig(
                                    engineConfig(w, seedOf(ctx, j)),
                                    islandConfig(w), 0),
                                defectOf(ctx, j), tracer, 0, true);
            }
            if (w.service &&
                outcomeDigest(res.found, res.repairedSource, res.generations,
                              res.fitnessEvals) !=
                    m.requests[static_cast<size_t>(j)].digest)
                checks.fail("service request " + std::to_string(j) +
                            " differs from the in-process run of its job");
        }
    }
    // Candidate layers: generation-0 neighbourhood of each defect, first
    // trial seed only, replayed one call at a time.
    for (size_t d = 0; d < ctx.scenarios.size(); ++d) {
        const long id = tracer.newId();
        Clock::time_point t0 = Clock::now();
        replayCandidates(ctx.scenarios[d], engineConfig(w, trialSeed(0)),
                         tracer, id);
        tracer.add(Span{"replay", t0, Clock::now(), id, 0, 0,
                        {{"defect", static_cast<double>(d)}}});
    }
    if (m.rerun.size() != m.requests.size())
        checks.fail("untraced re-run completed " +
                    std::to_string(m.rerun.size()) + " of " +
                    std::to_string(m.requests.size()) + " requests");
    for (size_t i = 0; i < std::min(m.rerun.size(), m.requests.size()); ++i)
        if (m.rerun[i].digest != m.requests[i].digest)
            checks.fail("request " + std::to_string(i) +
                        ": traced and untraced outcomes differ");
}

/** Every reported repair must re-simulate to fitness 1.0. Service jobs
 *  are scored against the daemon's own view of the job (the probe and
 *  oracle buildJobInputs derives). */
void
checkRepairs(const Context &ctx, const std::vector<Request> &rs,
             Checks &checks)
{
    for (const Request &r : rs) {
        if (!r.found || r.failed)
            continue;
        const size_t d = defectOf(ctx, r.index);
        const core::Scenario &sc = ctx.scenarios[d];
        bool ok = ctx.w.service
                      ? resimulatesPlausible(r.repairedSource,
                                             sc.project->tbModule,
                                             ctx.jobInputs[d].probe,
                                             ctx.jobInputs[d].oracle)
                      : resimulatesPlausible(r.repairedSource,
                                             sc.project->tbModule, sc.probe,
                                             sc.oracle);
        if (!ok)
            checks.fail("request " + std::to_string(r.index) + " (" +
                        sc.defect->id +
                        "): reported repair does not score 1.0");
    }
}

/** Outcome rates and tail latencies, reported beside the metrics. */
void
addOutcomeExtras(const Workload &w, const Measured &m, Json &extras)
{
    const std::vector<Request> &rs = m.requests;
    const double n = static_cast<double>(rs.size());
    double found = 0, correct = 0, failed = 0;
    for (const Request &r : rs) {
        found += r.found && !r.failed;
        correct += r.correct;
        failed += r.failed;
    }
    // The highest of p90 and p75 with ten samples beyond it.
    auto tail = [&](const std::string &name, bool foundOnly) {
        for (int p : {90, 75})
            if (n * (100 - p) / 100 >= 10) {
                extras[name + "_p" + std::to_string(p)] = latencyQuantile(
                    rs, p / 100.0, m.wall, foundOnly);
                return;
            }
    };
    extras["latency_s_p50"] = latencyQuantile(rs, 0.5, m.wall);
    tail("latency_s", false);
    extras["plausible_rate"] = ratio(found, n);
    extras["job_fail_rate"] = ratio(failed, n);
    if (w.islands > 0 || w.checkCorrect) {
        extras["repair_s_p50"] = latencyQuantile(rs, 0.5, m.wall, true);
        tail("repair_s", true);
    }
    if (w.checkCorrect) {
        extras["correct_rate"] = ratio(correct, n);
        extras["correct_s_p50"] =
            latencyQuantile(rs, 0.5, m.wall, true, true);
    }
    extras["wall_s"] = m.wall;
    extras["samples"] = static_cast<long>(rs.size());
}

Json
metaJson(const Workload &w, const Options &opt, int rounds,
         const std::string &loadBefore)
{
    Json meta = Json::object();
    meta["workload"] = w.name;
    meta["seed"] = static_cast<long long>(opt.seed);
    meta["seconds"] = opt.seconds;
    meta["rounds"] = rounds;
    meta["trace"] = opt.trace;
    meta["smoke"] = opt.smoke;
    meta["nproc"] = nproc();
    meta["cpu_model"] = cpuModel();
    meta["load_before"] = loadBefore;
    meta["load_after"] = readFirstLine("/proc/loadavg");
    meta["build_type"] = E2E_BUILD_TYPE;
    meta["compiler"] = E2E_COMPILER;
    meta["git_commit"] = gitCommit();
    Json params = Json::object();
    params["pop_size"] = w.popSize;
    params["max_generations"] = w.maxGenerations;
    params["engine_threads"] = w.threads;
    params["islands"] = w.islands;
    if (w.islands > 0) {
        params["migration_interval"] = w.migrationInterval;
        params["migrants_per_island"] = w.migrantsPerIsland;
    }
    if (w.service) {
        params["daemon_workers"] = w.workers;
        params["clients"] = w.clients;
    }
    Json defects = Json::array();
    for (const std::string &d : w.defects)
        defects.push(d);
    params["defects"] = std::move(defects);
    meta["params"] = std::move(params);
    return meta;
}

int
run(const Options &opt)
{
    std::vector<Workload> all = workloads(opt.smoke);
    auto it = std::find_if(all.begin(), all.end(), [&](const Workload &w) {
        return w.name == opt.workload;
    });
    if (it == all.end())
        usage("unknown workload '" + opt.workload + "'");
    Context ctx;
    ctx.w = *it;
    const Workload &w = ctx.w;
    Tracer tracer(opt.trace);
    const std::string loadBefore = readFirstLine("/proc/loadavg");

    // Set-up of an in-process workload is building its scenarios (the
    // golden and held-out oracles), timed here and again during the
    // loop; the service's is starting the daemon (runServiceLoad).
    double firstSetup = 0;
    ctx.scenarios = buildScenarios(w, tracer, &firstSetup);
    if (w.service)
        for (const core::Scenario &sc : ctx.scenarios)
            ctx.jobInputs.push_back(
                service::buildJobInputs(jobSpec(w, sc, 0)));
    // A traced run spends half its time on the untraced re-run.
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const int rounds =
        opt.smoke ? 1
                  : std::max(1, static_cast<int>(
                                    std::ceil(budget / w.roundSeconds)));
    ctx.order = shuffledRounds(w.defects.size(), rounds, opt.seed);

    Measured m = w.service ? measureService(ctx, opt, tracer)
                           : measureInProcess(ctx, opt, tracer, firstSetup);
    Checks checks;
    if (opt.trace)
        traceLayers(ctx, m, tracer, checks);
    if (g_interrupted)
        return 130;
    for (const std::vector<Request> *rs : {&m.warmup, &m.requests, &m.rerun})
        checkRepairs(ctx, *rs, checks);

    long failed = 0, completed = 0, evals = 0;
    double latencySum = 0;
    for (const Request &r : m.requests) {
        failed += r.failed;
        completed += !r.failed;
        evals += r.evals;
        latencySum += r.failed ? 0 : r.seconds;
    }
    // The mean, not the median: request times cluster by defect, and a
    // median that falls between two clusters jumps between them from run
    // to run (up to 36% apart on the reference host). The median and
    // the tail are reported as info lines.
    std::vector<Metric> e2e = {
        {"setup_s", quantile(m.setupSeconds, 0.5), "s"},
        {"latency_s_mean", ratio(latencySum, static_cast<double>(completed)),
         "s"},
        {"requests_per_s", ratio(static_cast<double>(completed), m.wall),
         "1/s"},
        {"evals_per_s", ratio(static_cast<double>(evals), m.wall), "1/s"},
        {"cpu_us_per_eval", 1e6 * ratio(m.cpu, static_cast<double>(evals)),
         "us"},
    };
    // Reported, not gated: with several threads the peak depends on how
    // glibc's per-thread arenas filled, 10-30% from run to run.
    m.extras["peak_rss_mb"] = m.peakRssMb;
    std::vector<Metric> layers;
    if (opt.trace)
        layers = layerMetrics(tracer.spans(), ratio(m.wall, m.rerunWall),
                              w.service ? firstSetup
                                        : quantile(m.setupSeconds, 0.5));
    addOutcomeExtras(w, m, m.extras);

    // ---- report
    const long attempted = static_cast<long>(m.requests.size());
    const uint64_t digest = digestOf(m.requests);
    Json meta = metaJson(w, opt, rounds, loadBefore);
    std::cout << "# e2e_bench " << w.name << ": " << w.why << "\n";
    for (const auto &[k, v] : meta.members())
        std::cout << "meta " << k << " " << v.dump() << "\n";
    for (const Metric &x : e2e)
        std::printf("metric %s %.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    for (const Metric &x : layers)
        std::printf("layer %s %.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    for (const auto &[k, v] : m.extras.members())
        std::cout << "info " << k << " " << v.dump() << "\n";
    std::map<int, std::vector<Request>> byRound;
    for (const Request &r : m.requests)
        byRound[r.round].push_back(r);
    for (const auto &[round, rs] : byRound) {
        double busy = 0;
        for (const Request &r : rs)
            busy += r.seconds;
        std::cout << "round " << round << " seed " << rs.front().seed
                  << " requests " << rs.size() << " request_seconds "
                  << busy << " digest " << hex(digestOf(rs)) << "\n";
    }
    std::cout << "outcome_digest " << hex(digest) << " over " << attempted
              << " requests\n";
    for (const std::string &p : checks.problems)
        std::cout << "FAIL " << p << "\n";

    if (opt.trace) {
        std::ofstream tf(opt.traceFile);
        tf << tracer.chromeJson();
        if (!tf)
            throw std::runtime_error("cannot write " + opt.traceFile);
        std::cout << "trace " << opt.traceFile << "\n";
    }

    Json result = Json::object();
    result["correct"] = checks.ok();
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = metricsJson(opt.trace ? layers : e2e);
    if (!opt.out.empty()) {
        Json doc = result;
        doc["meta"] = meta;
        doc["end_to_end"] = metricsJson(e2e);
        doc["per_layer"] = metricsJson(layers);
        doc["extras"] = m.extras;
        doc["outcome_digest"] = hex(digest);
        Json reqs = Json::array();
        for (const Request &r : m.requests)
            reqs.push(requestJson(r));
        doc["requests"] = std::move(reqs);
        Json probs = Json::array();
        for (const std::string &p : checks.problems)
            probs.push(p);
        doc["problems"] = std::move(probs);
        std::ofstream of(opt.out);
        of << doc.dump() << "\n";
        if (!of)
            throw std::runtime_error("cannot write " + opt.out);
    }
    std::cout << result.dump() << std::endl;
    return checks.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::cerr << "e2e_bench: unoptimized build (NDEBUG unset, build type "
              << E2E_BUILD_TYPE << "); timings would be meaningless\n";
    return 3;
#endif
    Options opt = parseArgs(argc, argv);
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "e2e_bench: " << e.what() << "\n";
        return g_interrupted ? 130 : 4;
    }
}
