/**
 * @file
 * Tests for streaming fitness scoring and the early-abort cutoff:
 * bit-identity between the streaming and batch scorers, soundness of
 * the fitness upper bound, SurvivalTracker semantics, the lemma chunk
 * settlement rests on (the lowest upper bound decides every threshold),
 * abort counters pinned across commits, and the headline contract — a
 * repair run with the cutoff enabled produces the same repair as full
 * evaluation at any thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "core/engine.h"
#include "core/evaloutcome.h"
#include "core/fitness.h"
#include "core/scenario.h"
#include "core/witness.h"
#include "verilog/parser.h"

using namespace cirfix::core;
using cirfix::sim::LogicVec;
using cirfix::sim::Trace;

namespace {

Trace
traceOf(const std::vector<std::string> &vars,
        const std::vector<std::pair<uint64_t, std::vector<std::string>>>
            &rows)
{
    Trace t{std::vector<std::string>(vars)};
    for (auto &[time, vals] : rows) {
        std::vector<LogicVec> vv;
        for (auto &s : vals)
            vv.push_back(LogicVec::fromString(s));
        t.addRow(time, std::move(vv));
    }
    return t;
}

/** Feed every row of @p sim to a StreamingFitness over @p oracle. */
FitnessResult
streamScore(const Trace &sim, const Trace &oracle,
            const FitnessParams &params = {})
{
    StreamingFitness scorer(oracle, sim.vars(), params);
    for (const auto &row : sim.rows())
        scorer.onSample(row.time, row.values);
    return scorer.finish();
}

void
expectSameResult(const FitnessResult &a, const FitnessResult &b)
{
    // Bit-identical, not approximately equal: both paths must run the
    // same additions in the same order.
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.bitMatches, b.bitMatches);
    EXPECT_EQ(a.bitMismatches, b.bitMismatches);
    EXPECT_EQ(a.unknownMatches, b.unknownMatches);
    EXPECT_EQ(a.unknownMismatches, b.unknownMismatches);
}

TEST(StreamingFitness, MatchesBatchOnHandPickedShapes)
{
    struct Case
    {
        const char *name;
        Trace oracle;
        Trace sim;
    };
    std::vector<Case> cases;
    cases.push_back({"perfect",
                     traceOf({"q"}, {{5, {"0101"}}, {15, {"0110"}}}),
                     traceOf({"q"}, {{5, {"0101"}}, {15, {"0110"}}})});
    cases.push_back({"sim ended early",
                     traceOf({"q"}, {{5, {"01"}}, {15, {"10"}}}),
                     traceOf({"q"}, {{5, {"01"}}})});
    cases.push_back({"sim rows between oracle rows",
                     traceOf({"q"}, {{10, {"1"}}, {30, {"0"}}}),
                     traceOf({"q"}, {{5, {"0"}},
                                     {10, {"1"}},
                                     {20, {"x"}},
                                     {30, {"0"}},
                                     {40, {"1"}}})});
    cases.push_back({"missing column",
                     traceOf({"q", "r"}, {{5, {"1", "0"}}}),
                     traceOf({"q"}, {{5, {"1"}}})});
    cases.push_back({"swapped columns",
                     traceOf({"a", "b"}, {{5, {"1", "0"}}}),
                     traceOf({"b", "a"}, {{5, {"0", "1"}}})});
    cases.push_back({"width mismatch",
                     traceOf({"q"}, {{5, {"0011"}}}),
                     traceOf({"q"}, {{5, {"11"}}})});
    cases.push_back({"x and z everywhere",
                     traceOf({"q"}, {{5, {"xz01"}}, {15, {"zzxx"}}}),
                     traceOf({"q"}, {{5, {"x001"}}, {15, {"10zx"}}})});
    cases.push_back({"empty sim",
                     traceOf({"q"}, {{5, {"1"}}, {15, {"0"}}}),
                     Trace{std::vector<std::string>{"q"}}});
    cases.push_back({"empty oracle",
                     Trace{std::vector<std::string>{"q"}},
                     traceOf({"q"}, {{5, {"1"}}})});

    for (double phi : {1.0, 2.0, 3.5}) {
        FitnessParams params;
        params.phi = phi;
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(c.name) +
                         " phi=" + std::to_string(phi));
            expectSameResult(streamScore(c.sim, c.oracle, params),
                             evaluateFitness(c.sim, c.oracle, params));
        }
    }
}

TEST(StreamingFitness, ResampleAtSameInstantReplacesPending)
{
    // Trace::addRow keeps the latest row per timestamp; the streaming
    // scorer must honor the same replace-on-equal-time semantics.
    Trace oracle = traceOf({"q"}, {{5, {"1"}}, {15, {"0"}}});
    StreamingFitness scorer(oracle, {"q"});
    scorer.onSample(5, {LogicVec::fromString("0")});  // replaced below
    scorer.onSample(5, {LogicVec::fromString("1")});
    scorer.onSample(15, {LogicVec::fromString("0")});
    FitnessResult batch = evaluateFitness(
        traceOf({"q"}, {{5, {"1"}}, {15, {"0"}}}), oracle);
    expectSameResult(scorer.finish(), batch);
}

TEST(StreamingFitness, RandomizedEquivalence)
{
    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        int width = 1 + static_cast<int>(rng() % 7);
        auto random_trace = [&](int rows, uint64_t step) {
            Trace t({"v", "w"});
            for (int i = 0; i < rows; ++i) {
                auto bits = [&] {
                    std::string s;
                    for (int b = 0; b < width; ++b)
                        s.push_back("01xz"[rng() % 4]);
                    return LogicVec::fromString(s);
                };
                t.addRow(static_cast<uint64_t>(i) * step,
                         {bits(), bits()});
            }
            return t;
        };
        // Different row counts and steps so sim/oracle timestamps
        // align only sometimes.
        Trace oracle = random_trace(1 + static_cast<int>(rng() % 10),
                                    5 + rng() % 3);
        Trace sim = random_trace(1 + static_cast<int>(rng() % 10),
                                 5 + rng() % 3);
        FitnessParams params;
        params.phi = 0.5 + static_cast<double>(rng() % 8) / 2.0;
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSameResult(streamScore(sim, oracle, params),
                         evaluateFitness(sim, oracle, params));
    }
}

TEST(StreamingFitness, UpperBoundDominatesEveryCompletion)
{
    // At every prefix of the sample stream, upperBound() must be >=
    // the fitness the candidate finally achieves.
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 100; ++trial) {
        auto random_trace = [&](int rows) {
            Trace t({"v"});
            for (int i = 0; i < rows; ++i) {
                std::string s;
                for (int b = 0; b < 4; ++b)
                    s.push_back("01xz"[rng() % 4]);
                t.addRow(static_cast<uint64_t>(i) * 10,
                         {LogicVec::fromString(s)});
            }
            return t;
        };
        Trace oracle = random_trace(8);
        Trace sim = random_trace(1 + static_cast<int>(rng() % 8));
        double final_fitness =
            evaluateFitness(sim, oracle).fitness;
        StreamingFitness scorer(oracle, sim.vars());
        EXPECT_GE(scorer.upperBound(), final_fitness);
        for (const auto &row : sim.rows()) {
            scorer.onSample(row.time, row.values);
            EXPECT_GE(scorer.upperBound() + 1e-12, final_fitness)
                << "trial " << trial;
        }
        EXPECT_EQ(scorer.finish().fitness, final_fitness);
    }
}

TEST(StreamingFitness, PerfectCandidateUpperBoundStaysOne)
{
    // A candidate with no mismatches keeps ub = 1 at every prefix, so
    // it can never be aborted by any threshold <= 1 (plausible repairs
    // are never lost to the cutoff).
    Trace oracle = traceOf({"q"}, {{5, {"0101"}}, {15, {"0110"}},
                                   {25, {"1111"}}});
    StreamingFitness scorer(oracle, {"q"});
    for (const auto &row : oracle.rows()) {
        EXPECT_DOUBLE_EQ(scorer.upperBound(), 1.0);
        scorer.onSample(row.time, row.values);
    }
    EXPECT_DOUBLE_EQ(scorer.finish().fitness, 1.0);
}

TEST(SurvivalTracker, ThresholdIsKthBest)
{
    SurvivalTracker t(3);
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(t.threshold(),
              -std::numeric_limits<double>::infinity());
    t.submit(0.5);
    t.submit(0.9);
    EXPECT_FALSE(t.armed());
    t.submit(0.2);
    EXPECT_TRUE(t.armed());
    EXPECT_DOUBLE_EQ(t.threshold(), 0.2);  // 3rd best of {.9,.5,.2}
    t.submit(0.7);
    EXPECT_DOUBLE_EQ(t.threshold(), 0.5);  // {.9,.7,.5}
    t.submit(0.1);  // below threshold: no change
    EXPECT_DOUBLE_EQ(t.threshold(), 0.5);
    t.submit(1.0);
    EXPECT_DOUBLE_EQ(t.threshold(), 0.7);  // {1,.9,.7}
}

TEST(SurvivalTracker, ZeroCapacityNeverArms)
{
    SurvivalTracker t(0);
    t.submit(0.5);
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(t.threshold(),
              -std::numeric_limits<double>::infinity());
}

TEST(EvalOutcome, NamesRoundTripAndAreDistinct)
{
    std::set<std::string> seen;
    for (int i = 0; i < kEvalOutcomeCount; ++i) {
        auto o = static_cast<EvalOutcome>(i);
        std::string name = evalOutcomeName(o);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate outcome name " << name;
        EXPECT_EQ(evalOutcomeFromName(name), o);
    }
    EXPECT_EQ(evalOutcomeName(EvalOutcome::EarlyAbort),
              std::string("early-abort"));
    EXPECT_FALSE(isQuarantineOutcome(EvalOutcome::EarlyAbort));
    EXPECT_THROW(evalOutcomeFromName("no-such-outcome"),
                 std::runtime_error);
}

/** The semantic fields that must not depend on the cutoff. */
std::string
semanticFingerprint(const RepairResult &r)
{
    std::ostringstream os;
    os << r.found << '|' << r.patch.key() << '|' << r.repairedSource
       << '|' << r.finalFitness.sum << '/' << r.finalFitness.total
       << '|' << r.generations << '|' << r.totalMutants << '|'
       << r.invalidMutants;
    for (const auto &[evals, fit] : r.fitnessTrajectory)
        os << '|' << evals << ':' << fit;
    return os.str();
}

RepairResult
runTrial(const Scenario &sc, bool early_abort, int threads)
{
    EngineConfig cfg;
    cfg.popSize = 20;
    cfg.maxGenerations = 5;
    // Lambda > popSize so truncation actually drops candidates and the
    // cutoff has something to prune.
    cfg.offspringPerGen = 40;
    cfg.seed = 7;
    cfg.numThreads = threads;
    cfg.maxSeconds = 1e9;  // the clock must not shape the search
    cfg.earlyAbort = early_abort;
    RepairEngine engine = sc.makeEngine(cfg);
    return engine.run();
}

TEST(EarlyAbort, RepairResultsBitIdenticalAcrossThreadCounts)
{
    const ProjectSpec &p = cirfix::bench::getProject("counter");
    const DefectSpec &d =
        cirfix::bench::getDefect("counter_incorrect_reset");
    Scenario sc = buildScenario(p, d);

    RepairResult reference = runTrial(sc, false, 1);
    EXPECT_EQ(reference.earlyAborts, 0);
    std::string want = semanticFingerprint(reference);

    bool any_aborts = false;
    for (int threads : {1, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        RepairResult full = runTrial(sc, false, threads);
        EXPECT_EQ(semanticFingerprint(full), want);
        RepairResult aborted = runTrial(sc, true, threads);
        EXPECT_EQ(semanticFingerprint(aborted), want);
        // The aborted set itself is deterministic per seed, so every
        // thread count saves exactly the same work.
        EXPECT_EQ(aborted.earlyAborts,
                  runTrial(sc, true, 2).earlyAborts);
        EXPECT_EQ(aborted.rowsSkipped,
                  runTrial(sc, true, 2).rowsSkipped);
        any_aborts = any_aborts || aborted.earlyAborts > 0;
    }
    // The configuration is chosen so the cutoff really fires; if this
    // fails the test is vacuous, not the engine wrong.
    EXPECT_TRUE(any_aborts);
}

TEST(EarlyAbort, AbortedVariantHoldsPartialScore)
{
    // Drive evaluateUncached directly with an impossible threshold:
    // the simulation must stop early, classify as EarlyAbort, and
    // report a partial (not worst) fitness plus the rows it reached.
    const ProjectSpec &p = cirfix::bench::getProject("counter");
    const DefectSpec &d =
        cirfix::bench::getDefect("counter_incorrect_reset");
    Scenario sc = buildScenario(p, d);
    EngineConfig cfg;
    RepairEngine engine = sc.makeEngine(cfg);

    RepairEngine::EvalHints hints;
    hints.streaming = true;
    hints.abortThreshold = 2.0;  // unreachable: ub <= 1 always
    Variant v = engine.evaluateUncached(Patch{}, hints);
    EXPECT_EQ(v.outcome, EvalOutcome::EarlyAbort);
    EXPECT_TRUE(v.valid);
    EXPECT_FALSE(v.error.empty());
    EXPECT_LT(v.rowsScored, sc.oracle.rows().size());

    // Threshold -inf never aborts and reproduces batch scoring.
    RepairEngine::EvalHints no_abort;
    no_abort.streaming = true;
    Variant full = engine.evaluateUncached(Patch{}, no_abort);
    EXPECT_EQ(full.outcome, EvalOutcome::Ok);
    Variant batch = engine.evaluateUncached(Patch{});
    EXPECT_EQ(full.fit.sum, batch.fit.sum);
    EXPECT_EQ(full.fit.total, batch.fit.total);
    EXPECT_EQ(full.fit.fitness, batch.fit.fitness);
    EXPECT_EQ(full.rowsScored, sc.oracle.rows().size());
}


void
expectSameTrace(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.vars(), b.vars());
    ASSERT_EQ(a.rows().size(), b.rows().size());
    for (size_t r = 0; r < a.rows().size(); ++r) {
        EXPECT_EQ(a.rows()[r].time, b.rows()[r].time);
        EXPECT_EQ(a.rows()[r].values, b.rows()[r].values);
    }
}

/** Streaming evaluation of the unpatched design under @p threshold;
 *  @p lowest (optional) receives the lowest upper bound seen. */
Variant
runUnder(const RepairEngine &engine, double threshold,
         double *lowest = nullptr)
{
    RepairEngine::EvalHints hints;
    hints.streaming = true;
    hints.abortThreshold = threshold;
    hints.lowestBound = lowest;
    return engine.evaluateUncached(Patch{}, hints);
}

/** The −inf run and a run under a threshold that did not abort must
 *  be the same run. */
void
expectSameRun(const Variant &ref, const Variant &v)
{
    EXPECT_EQ(v.outcome, ref.outcome);
    expectSameResult(v.fit, ref.fit);
    EXPECT_EQ(v.rowsScored, ref.rowsScored);
    expectSameTrace(v.trace, ref.trace);
}

/**
 * The lemma that lets the engine settle a chunk without re-running
 * most of it: upper bounds never increase, so a run under threshold t
 * whose lowest bound L was never below the cutoff is the very run it
 * would have been under any threshold up to L, and any threshold above
 * L stops it (abort needs a strict <).
 */
TEST(EarlyAbort, LowestBoundDecidesEveryThreshold)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const DefectSpec &d : cirfix::bench::allDefects()) {
        SCOPED_TRACE(d.id);
        Scenario sc =
            buildScenario(cirfix::bench::getProject(d.project), d);
        RepairEngine engine = sc.makeEngine(EngineConfig{});
        double lowest = 0.0;
        Variant ref = runUnder(engine, -inf, &lowest);
        ASSERT_EQ(ref.outcome, EvalOutcome::Ok);
        ASSERT_TRUE(std::isfinite(lowest));

        for (double t : {std::nextafter(lowest, -inf), lowest}) {
            double seen = 0.0;
            Variant v = runUnder(engine, t, &seen);
            expectSameRun(ref, v);
            EXPECT_EQ(seen, lowest);
        }
        for (double t : {std::nextafter(lowest, inf), 2.0})
            EXPECT_EQ(runUnder(engine, t).outcome, EvalOutcome::EarlyAbort)
                << "threshold " << t;
    }
}

TEST(EarlyAbort, LowestBoundDecidesEveryThresholdWithWitnessBench)
{
    // With a witness bench the threshold is a combined fitness and the
    // run stops once the main-bench bound falls below
    // (T*(Tm+Tw) - Tw)/Tm. Find the aborting boundary by bisection
    // over the doubles in [0, 2] (abort is monotone in T) and check it
    // sits exactly where that rescale puts L.
    const ProjectSpec &p = cirfix::bench::getProject("counter");
    const DefectSpec &d =
        cirfix::bench::getDefect("counter_incorrect_reset");
    Scenario sc = buildScenario(p, d);
    auto golden = cirfix::verilog::parse(p.goldenSource);
    WitnessInterface iface = deriveWitnessInterface(*golden, p.dutModule);
    ASSERT_EQ(iface.inputs.size(), 2u);  // reset, enable
    OracleBench bench;
    bench.module = "wtb";
    bench.source = makeWitnessBenchSource(
        iface, {{1, 0}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}, "wtb", 5);
    bench.probe = witnessProbe(iface);
    bench.oracle = runWitnessBench(p.goldenSource, bench);
    EngineConfig cfg;
    cfg.witnessBenches.push_back(bench);
    RepairEngine engine = sc.makeEngine(cfg);

    const double inf = std::numeric_limits<double>::infinity();
    double lowest = 0.0;
    Variant ref = runUnder(engine, -inf, &lowest);
    ASSERT_EQ(ref.outcome, EvalOutcome::Ok);
    ASSERT_TRUE(std::isfinite(lowest));

    // Invariant: lo does not abort, hi does. Non-negative doubles
    // order like their bit patterns.
    auto bits = [](double x) {
        uint64_t u;
        std::memcpy(&u, &x, sizeof u);
        return u;
    };
    auto fromBits = [](uint64_t u) {
        double x;
        std::memcpy(&x, &u, sizeof x);
        return x;
    };
    uint64_t lo = bits(0.0), hi = bits(2.0);
    ASSERT_NE(runUnder(engine, 0.0).outcome, EvalOutcome::EarlyAbort);
    ASSERT_EQ(runUnder(engine, 2.0).outcome, EvalOutcome::EarlyAbort);
    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        Variant v = runUnder(engine, fromBits(mid));
        if (v.outcome == EvalOutcome::EarlyAbort) {
            hi = mid;
        } else {
            expectSameRun(ref, v);
            lo = mid;
        }
    }
    const double tm = OracleProfile::build(sc.oracle).suffixWeight[0];
    const double tw = evaluateFitness(Trace{}, bench.oracle).total;
    auto cutoff = [&](double t) { return (t * (tm + tw) - tw) / tm; };
    EXPECT_LE(cutoff(fromBits(lo)), lowest);
    EXPECT_GT(cutoff(fromBits(hi)), lowest);
    // The rescale really moved the boundary off L.
    EXPECT_GT(fromBits(lo), lowest);
}

/**
 * The aborted set pinned across commits. EarlyAbort.* above compares
 * thread counts of one build; these cases assert counters recorded from
 * an earlier build, so a change to how the survival threshold is
 * settled that aborts one candidate more or less fails here even when
 * it is consistent across thread counts.
 */
struct AbortPin
{
    const char *defect;
    int popSize;
    int offspring;
    uint64_t seed;
    int maxGenerations;
    long earlyAborts;
    uint64_t rowsScored;
    uint64_t rowsSkipped;
    long fitnessEvals;
    long totalMutants;
    long cacheHits;
    long cacheMisses;
};

void
PrintTo(const AbortPin &p, std::ostream *os)
{
    *os << p.defect;
    // Pins at the original configuration keep their original names.
    if (p.popSize != 100 || p.offspring != 400 || p.seed != 1000)
        *os << "/pop" << p.popSize << "_lambda" << p.offspring << "_seed"
            << p.seed;
}

class PinnedAborts : public ::testing::TestWithParam<AbortPin>
{};

TEST_P(PinnedAborts, CountersMatchRecordingAtOneAndFourThreads)
{
    const AbortPin &pin = GetParam();
    const DefectSpec &d = cirfix::bench::getDefect(pin.defect);
    Scenario sc = buildScenario(cirfix::bench::getProject(d.project), d);
    for (int threads : {1, 4}) {
        EngineConfig cfg;
        cfg.popSize = pin.popSize;
        cfg.offspringPerGen = pin.offspring;
        cfg.maxGenerations = pin.maxGenerations;
        cfg.maxSeconds = 1e9;  // the clock must not shape the search
        cfg.seed = pin.seed;
        cfg.numThreads = threads;
        RepairResult r = sc.makeEngine(cfg).run();
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(r.earlyAborts, pin.earlyAborts);
        EXPECT_EQ(r.rowsScored, pin.rowsScored);
        EXPECT_EQ(r.rowsSkipped, pin.rowsSkipped);
        EXPECT_EQ(r.fitnessEvals, pin.fitnessEvals);
        EXPECT_EQ(r.totalMutants, pin.totalMutants);
        EXPECT_EQ(r.cache.hits, pin.cacheHits);
        EXPECT_EQ(r.cache.misses, pin.cacheMisses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, PinnedAborts,
    ::testing::Values(
        AbortPin{"counter_incorrect_reset", 100, 400, 1000, 6, 712, 43673,
                 4452, 1925, 2502, 573, 1929},
        AbortPin{"sha3_negation", 100, 400, 1000, 3, 353, 18459, 1666, 875,
                 1301, 390, 911},
        // A small population: lambda is 2x mu rather than 4x.
        AbortPin{"counter_incorrect_reset", 20, 40, 7, 6, 27, 4617, 233,
                 194, 262, 68, 194}));

} // namespace
