/**
 * @file
 * Witness-driven oracle hardening tests.
 *
 * The central property is GOLDEN INVARIANCE: a witness bench's expected
 * trace is recorded from the golden design, so the correct design
 * passes every hardened oracle by construction — a witness can only
 * ever kill wrong behavior. Every test that generates a witness
 * re-checks this on the real golden source.
 *
 * The end-to-end tests seed a guaranteed-overfit starting point by
 * weakening a scenario's oracle to agreementRows(oracle, faulty_trace):
 * the unrepaired design is then instantly plausible (and wrong), the
 * hardened loop must kill it with a generated witness, resume from the
 * discovery-point snapshot, and drive the search to a patch that
 * passes the held-out verification bench.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unistd.h>

#include "benchmarks/registry.h"
#include "core/oracle.h"
#include "core/scenario.h"
#include "core/snapshot.h"
#include "core/witness.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::core;

namespace {

const char *kGoldenCounter = R"(
module counter (clk, reset, enable, counter_out, overflow_out);
    input clk;
    input reset;
    input enable;
    output [3:0] counter_out;
    output overflow_out;
    reg [3:0] counter_out;
    reg overflow_out;
    always @(posedge clk)
    begin
        if (reset == 1'b1) begin
            counter_out <= #1 4'b0000;
            overflow_out <= #1 1'b0;
        end
        else if (enable == 1'b1) begin
            counter_out <= #1 counter_out + 1;
        end
        if (counter_out == 4'b1111) begin
            overflow_out <= #1 1'b1;
        end
    end
endmodule
)";

/** Same counter, but overflow fires early (at 7 instead of 15). */
const char *kEarlyOverflowCounter = R"(
module counter (clk, reset, enable, counter_out, overflow_out);
    input clk;
    input reset;
    input enable;
    output [3:0] counter_out;
    output overflow_out;
    reg [3:0] counter_out;
    reg overflow_out;
    always @(posedge clk)
    begin
        if (reset == 1'b1) begin
            counter_out <= #1 4'b0000;
            overflow_out <= #1 1'b0;
        end
        else if (enable == 1'b1) begin
            counter_out <= #1 counter_out + 1;
        end
        if (counter_out == 4'b0111) begin
            overflow_out <= #1 1'b1;
        end
    end
endmodule
)";

WitnessOptions
fastWitnessOptions(uint64_t seed = 7)
{
    WitnessOptions wo;
    wo.seed = seed;
    // The early-overflow bug needs ~8 uninterrupted enabled cycles to
    // surface; each try is sub-millisecond, so a generous budget keeps
    // the tests seed-robust without noticeable cost.
    wo.maxTries = 4000;
    wo.maxCycles = 24;
    return wo;
}

EngineConfig
fastConfig(uint64_t seed = 42)
{
    EngineConfig cfg;
    cfg.popSize = 100;
    cfg.maxGenerations = 12;
    cfg.maxSeconds = 20.0;
    cfg.seed = seed;
    return cfg;
}

/** Per-process path: the asan.-prefixed copy of this test runs in
 *  another process at the same time and must not share the file. */
std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

/** The golden design must score a perfect fitness under @p bench. */
void
expectGoldenPasses(const std::string &golden_src,
                   const OracleBench &bench)
{
    Trace t = runWitnessBench(golden_src, bench).trace;
    FitnessResult fit = evaluateFitness(t, bench.oracle);
    EXPECT_TRUE(fit.plausible())
        << "witness bench '" << bench.module
        << "' rejects the golden design (" << bench.provenance << ")";
}

/**
 * A scenario whose oracle has been weakened until the UNREPAIRED
 * design is plausible: the seeded overfit starting point.
 */
Scenario
weakenedScenario(const std::string &defect_id)
{
    const DefectSpec &d = bench::getDefect(defect_id);
    const ProjectSpec &p = bench::getProject(d.project);
    Scenario sc = buildScenario(p, d);
    RepairEngine probe = sc.makeEngine(fastConfig());
    Trace faulty_trace = probe.evaluate(Patch{}).trace;
    sc.oracle = agreementRows(sc.oracle, faulty_trace);
    return sc;
}

// ------------------------------------------------------------------
// Interface derivation and bench generation
// ------------------------------------------------------------------

TEST(Witness, DerivesInterfaceFromPorts)
{
    auto file = verilog::parse(kGoldenCounter);
    WitnessInterface iface = deriveWitnessInterface(*file, "counter");
    EXPECT_EQ(iface.dutModule, "counter");
    EXPECT_EQ(iface.clockPort, "clk");
    ASSERT_EQ(iface.inputs.size(), 2u);
    EXPECT_EQ(iface.inputs[0].name, "reset");
    EXPECT_EQ(iface.inputs[0].width, 1);
    EXPECT_EQ(iface.inputs[1].name, "enable");
    ASSERT_EQ(iface.outputs.size(), 2u);
    EXPECT_EQ(iface.outputs[0].name, "counter_out");
    EXPECT_EQ(iface.outputs[0].width, 4);
    EXPECT_EQ(iface.outputs[1].name, "overflow_out");
    EXPECT_EQ(iface.outputs[1].width, 1);
}

TEST(Witness, UnknownModuleThrows)
{
    auto file = verilog::parse(kGoldenCounter);
    EXPECT_THROW(deriveWitnessInterface(*file, "nope"),
                 std::runtime_error);
}

TEST(Witness, GeneratedBenchSimulatesAndSamplesEveryStep)
{
    auto file = verilog::parse(kGoldenCounter);
    WitnessInterface iface = deriveWitnessInterface(*file, "counter");
    // reset, then count three cycles.
    StepMatrix steps{{1, 0}, {0, 1}, {0, 1}, {0, 1}};
    OracleBench bench;
    bench.module = "wtb";
    bench.source = makeWitnessBenchSource(iface, steps, "wtb", 5);
    bench.probe = witnessProbe(iface);
    Trace t = runWitnessBench(kGoldenCounter, bench).trace;
    ASSERT_EQ(t.rows().size(), steps.size());
    // Row k samples the state *entering* posedge k (the DUT's `<= #1`
    // response to step k lands in the next time slot), so the reset
    // shows up in row 1 and each enabled increment one row later.
    EXPECT_EQ(t.rows()[0].values[0].toString(), "xxxx");
    EXPECT_EQ(t.rows()[1].values[0].toString(), "0000");
    EXPECT_EQ(t.rows()[2].values[0].toString(), "0001");
    EXPECT_EQ(t.rows()[3].values[0].toString(), "0010");
}

TEST(Witness, BenchGenerationIsDeterministic)
{
    auto file = verilog::parse(kGoldenCounter);
    WitnessInterface iface = deriveWitnessInterface(*file, "counter");
    StepMatrix steps{{1, 0}, {0, 1}};
    EXPECT_EQ(makeWitnessBenchSource(iface, steps, "wtb", 5),
              makeWitnessBenchSource(iface, steps, "wtb", 5));
}

// ------------------------------------------------------------------
// Delta-debugging minimizer
// ------------------------------------------------------------------

TEST(WitnessMinimize, KeepsExactlyTheNecessaryRows)
{
    // Discriminates iff a row of 3s appears before a row of 7s —
    // everything else is padding ddmin must strip.
    auto pred = [](const StepMatrix &m) {
        size_t first3 = m.size();
        for (size_t i = 0; i < m.size(); ++i) {
            if (m[i][0] == 3 && first3 == m.size())
                first3 = i;
            if (m[i][0] == 7 && first3 < i)
                return true;
        }
        return false;
    };
    StepMatrix bloated{{0}, {1}, {3}, {2}, {9}, {7}, {4}, {5}};
    ASSERT_TRUE(pred(bloated));
    int tests = 0;
    StepMatrix min = minimizeWitnessSteps(bloated, pred, &tests);
    ASSERT_EQ(min.size(), 2u);
    EXPECT_EQ(min[0][0], 3u);
    EXPECT_EQ(min[1][0], 7u);
    EXPECT_GT(tests, 0);
    EXPECT_TRUE(pred(min)) << "minimized stimulus must discriminate";
}

TEST(WitnessMinimize, ResultIsOneMinimal)
{
    auto pred = [](const StepMatrix &m) {
        uint64_t sum = 0;
        for (const auto &row : m)
            sum += row[0];
        return sum >= 10;
    };
    StepMatrix steps{{4}, {1}, {4}, {1}, {4}, {1}};
    StepMatrix min = minimizeWitnessSteps(steps, pred);
    ASSERT_TRUE(pred(min));
    // Removing any single remaining row must break the predicate.
    for (size_t i = 0; i < min.size(); ++i) {
        StepMatrix trial;
        for (size_t j = 0; j < min.size(); ++j)
            if (j != i)
                trial.push_back(min[j]);
        EXPECT_FALSE(pred(trial))
            << "row " << i << " is removable: not 1-minimal";
    }
}

TEST(WitnessMinimize, MinimizationIsIdempotent)
{
    auto pred = [](const StepMatrix &m) {
        for (const auto &row : m)
            if (row[0] == 7)
                return true;
        return false;
    };
    StepMatrix steps{{1}, {7}, {2}, {7}, {3}};
    StepMatrix once = minimizeWitnessSteps(steps, pred);
    StepMatrix twice = minimizeWitnessSteps(once, pred);
    EXPECT_EQ(once, twice);
    ASSERT_EQ(once.size(), 1u);
    EXPECT_EQ(once[0][0], 7u);
}

TEST(WitnessMinimize, SingleRowAndEmptyInputsPassThrough)
{
    auto always = [](const StepMatrix &) { return true; };
    StepMatrix one{{5}};
    EXPECT_EQ(minimizeWitnessSteps(one, always), one);
    StepMatrix none;
    EXPECT_EQ(minimizeWitnessSteps(none, always), none);
}

// ------------------------------------------------------------------
// Witness search
// ------------------------------------------------------------------

TEST(WitnessSearch, SeparatesEarlyOverflowCounter)
{
    WitnessSearchResult ws =
        findWitness(kGoldenCounter, kEarlyOverflowCounter, "counter",
                    fastWitnessOptions(), "wtb", "unit test");
    ASSERT_TRUE(ws.found);
    EXPECT_GT(ws.tries, 0);
    EXPECT_GE(ws.stepsBeforeMin, ws.steps.size());
    EXPECT_FALSE(ws.bench.source.empty());
    EXPECT_FALSE(ws.bench.oracle.rows().empty());
    // Golden invariance: the bench was recorded from the golden design.
    expectGoldenPasses(kGoldenCounter, ws.bench);
    // ... and it genuinely discriminates: the wrong design fails it.
    Trace wrong = runWitnessBench(kEarlyOverflowCounter, ws.bench).trace;
    EXPECT_FALSE(evaluateFitness(wrong, ws.bench.oracle).plausible());
}

TEST(WitnessSearch, IdenticalDesignsYieldNoWitness)
{
    WitnessOptions wo = fastWitnessOptions();
    wo.maxTries = 40;  // equivalence exhausts the try budget
    WitnessSearchResult ws = findWitness(
        kGoldenCounter, kGoldenCounter, "counter", wo, "wtb", "t");
    EXPECT_FALSE(ws.found);
    EXPECT_EQ(ws.tries, wo.maxTries);
}

TEST(WitnessSearch, DeterministicPerSeed)
{
    WitnessSearchResult a =
        findWitness(kGoldenCounter, kEarlyOverflowCounter, "counter",
                    fastWitnessOptions(11), "wtb", "t");
    WitnessSearchResult b =
        findWitness(kGoldenCounter, kEarlyOverflowCounter, "counter",
                    fastWitnessOptions(11), "wtb", "t");
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.tries, b.tries);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.bench.source, b.bench.source);
    EXPECT_EQ(a.bench.oracle.toCsv(), b.bench.oracle.toCsv());
}

// ------------------------------------------------------------------
// Engine integration: witness benches shape combined fitness
// ------------------------------------------------------------------

TEST(WitnessEngine, WitnessDemotesOverfitButNotGolden)
{
    // A "repair testbench" so weak (one reset cycle) that the broken
    // counter is plausible under it — until a witness is installed.
    const char *weak_tb = R"(
module weak_tb;
    reg clk; reg reset; reg enable;
    wire [3:0] counter_out; wire overflow_out;
    counter dut (.clk(clk), .reset(reset), .enable(enable),
                 .counter_out(counter_out),
                 .overflow_out(overflow_out));
    initial clk = 0;
    always #5 clk = !clk;
    initial begin
        reset = 1; enable = 0;
        #40 $finish;
    end
endmodule
)";
    auto assemble = [&](const char *dut_src, EngineConfig cfg) {
        std::string src = std::string(dut_src) + "\n" + weak_tb;
        std::shared_ptr<const verilog::SourceFile> file =
            verilog::parse(src);
        sim::ProbeConfig probe =
            sim::deriveProbeConfig(*file, "weak_tb");
        auto golden_file = std::shared_ptr<const verilog::SourceFile>(
            verilog::parse(std::string(kGoldenCounter) + "\n" +
                           weak_tb));
        auto design = sim::elaborate(golden_file, "weak_tb");
        sim::TraceRecorder rec(*design, probe);
        design->run();
        return RepairEngine(file, "weak_tb", "counter", probe,
                            rec.takeTrace(), cfg);
    };

    // Without a witness the early-overflow counter is plausible.
    {
        RepairEngine engine =
            assemble(kEarlyOverflowCounter, fastConfig());
        EXPECT_TRUE(engine.evaluate(Patch{}).fit.plausible());
    }

    WitnessSearchResult ws =
        findWitness(kGoldenCounter, kEarlyOverflowCounter, "counter",
                    fastWitnessOptions(), "wtb", "t");
    ASSERT_TRUE(ws.found);

    EngineConfig hardened = fastConfig();
    hardened.witnessBenches.push_back(ws.bench);
    {
        // The witness demotes the overfit design...
        RepairEngine engine =
            assemble(kEarlyOverflowCounter, hardened);
        Variant v = engine.evaluate(Patch{});
        EXPECT_FALSE(v.fit.plausible());
        EXPECT_LT(v.fit.fitness, 1.0);
    }
    {
        // ...and never the golden one.
        RepairEngine engine = assemble(kGoldenCounter, hardened);
        Variant v = engine.evaluate(Patch{});
        EXPECT_TRUE(v.fit.plausible());
    }
}

// ------------------------------------------------------------------
// Snapshot format v5: witness provenance
// ------------------------------------------------------------------

TEST(WitnessSnapshot, WitnessBenchesRoundTrip)
{
    WitnessSearchResult ws =
        findWitness(kGoldenCounter, kEarlyOverflowCounter, "counter",
                    fastWitnessOptions(), "wtb", "roundtrip");
    ASSERT_TRUE(ws.found);

    EngineState st;
    st.seed = 3;
    st.rngState = "12345 67890";
    st.witnesses.push_back(ws.bench);
    EngineState back = decodeSnapshot(encodeSnapshot(st));
    ASSERT_EQ(back.witnesses.size(), 1u);
    EXPECT_EQ(back.witnesses[0].module, ws.bench.module);
    EXPECT_EQ(back.witnesses[0].source, ws.bench.source);
    EXPECT_EQ(back.witnesses[0].provenance, ws.bench.provenance);
    EXPECT_EQ(back.witnesses[0].probe.clock, ws.bench.probe.clock);
    EXPECT_EQ(back.witnesses[0].probe.signals,
              ws.bench.probe.signals);
    EXPECT_EQ(back.witnesses[0].probe.startTime,
              ws.bench.probe.startTime);
    EXPECT_EQ(back.witnesses[0].oracle.toCsv(),
              ws.bench.oracle.toCsv());
}

TEST(WitnessSnapshot, ResumeRejectsMismatchedWitnessSet)
{
    // A snapshot scored under a witness cannot resume on an engine
    // without it (and vice versa): the fitness values would be lies.
    Scenario sc = weakenedScenario("counter_sensitivity");
    EngineConfig cfg = fastConfig();
    cfg.maxGenerations = 1;
    cfg.maxSeconds = 5.0;
    cfg.snapshotPath = tmpPath("witness_mismatch.snap");
    cfg.snapshotOnWin = true;
    RepairEngine engine = sc.makeEngine(cfg);
    RepairResult r = engine.run();
    ASSERT_TRUE(r.found);  // the weakened oracle accepts the original
    EngineState st = loadSnapshot(cfg.snapshotPath);
    EXPECT_TRUE(st.witnesses.empty());

    WitnessSearchResult ws =
        findWitness(kGoldenCounter, kEarlyOverflowCounter, "counter",
                    fastWitnessOptions(), "wtb", "t");
    ASSERT_TRUE(ws.found);
    EngineConfig hardened = cfg;
    hardened.witnessBenches.push_back(ws.bench);
    RepairEngine hardened_engine = sc.makeEngine(hardened);
    EXPECT_THROW(hardened_engine.resume(st), std::runtime_error);

    // rehardenSnapshot migrates it; then resume works.
    rehardenSnapshot(hardened_engine, st);
    ASSERT_EQ(st.witnesses.size(), 1u);
    RepairEngine fresh = sc.makeEngine(hardened);
    RepairResult resumed = fresh.resume(st);
    EXPECT_GE(resumed.generations, 0);
    EXPECT_EQ(resumed.witnessBenches, 1);
}

// ------------------------------------------------------------------
// End-to-end hardening on Table-3 scenarios
// ------------------------------------------------------------------

/**
 * Seed an overfit (the weakened oracle accepts the faulty design),
 * then demand the full loop: witness kills it, the run resumes from
 * the discovery-point snapshot, and the final patch passes the
 * held-out verification bench. Golden invariance is re-checked for
 * every witness the loop generated.
 */
void
hardenedEndToEnd(const std::string &defect_id, uint64_t seed)
{
    Scenario sc = weakenedScenario(defect_id);
    // Confirm the seeded overfit: plausible under the weak oracle,
    // wrong under the held-out bench.
    ASSERT_TRUE(sc.baselineFitness(fastConfig()).plausible());
    ASSERT_FALSE(checkCorrectness(sc, Patch{}));

    EngineConfig cfg = fastConfig(seed);
    cfg.snapshotPath = tmpPath("harden_" + defect_id + ".snap");
    WitnessOptions wo = fastWitnessOptions(seed);
    wo.maxRounds = 3;
    HardenedRepairResult hr = hardenedRepair(sc, cfg, wo);

    EXPECT_GE(hr.overfitKills, 1)
        << "the witness search must kill the seeded overfit patch";
    EXPECT_GE(hr.resumedFromSnapshot, 1)
        << "hardened rounds must resume from the discovery snapshot";
    ASSERT_GE(hr.witnesses.size(), 1u);
    for (const OracleBench &b : hr.witnesses)
        expectGoldenPasses(sc.project->goldenSource, b);
    EXPECT_EQ(hr.result.overfitKills, hr.overfitKills);
    ASSERT_TRUE(hr.result.found)
        << "the hardened search should still find a repair";
    EXPECT_TRUE(hr.correct)
        << "the final patch must pass the held-out bench";
    EXPECT_TRUE(checkCorrectness(sc, hr.result.patch));
}

TEST(WitnessEndToEnd, HardensCounterSensitivity)
{
    hardenedEndToEnd("counter_sensitivity", 7);
}

TEST(WitnessEndToEnd, HardensLshiftSensitivity)
{
    hardenedEndToEnd("lshift_sensitivity", 42);
}

TEST(WitnessEndToEnd, HardensLshiftConditional)
{
    hardenedEndToEnd("lshift_conditional", 42);
}

/**
 * The hardening counters of the three end-to-end scenarios, pinned
 * from an earlier build (pop 100, 12 generations, up to 4000 witness
 * stimuli, 3 rounds). WitnessEndToEnd.* asserts the loop works; these
 * cases fail when it kills, resumes or tries a different number of
 * times, or installs witnesses of a different length.
 */
struct HardeningPin
{
    const char *defect;
    uint64_t seed;
    int overfitKills;
    size_t witnesses;
    int resumed;
    int witnessTries;
    size_t witnessCycles;  //!< oracle rows over every installed bench
};

void
PrintTo(const HardeningPin &p, std::ostream *os)
{
    *os << p.defect;
}

class PinnedHardening : public ::testing::TestWithParam<HardeningPin>
{};

TEST_P(PinnedHardening, CountersMatchRecording)
{
    const HardeningPin &pin = GetParam();
    Scenario sc = weakenedScenario(pin.defect);
    EngineConfig cfg = fastConfig(pin.seed);
    cfg.maxSeconds = 120.0;  // the generation budget must bind
    cfg.snapshotPath =
        tmpPath(std::string("pinned_harden_") + pin.defect + ".snap");
    WitnessOptions wo = fastWitnessOptions(pin.seed);
    wo.maxRounds = 3;
    HardenedRepairResult hr = hardenedRepair(sc, cfg, wo);
    std::remove(cfg.snapshotPath.c_str());

    EXPECT_EQ(hr.overfitKills, pin.overfitKills);
    EXPECT_EQ(hr.witnesses.size(), pin.witnesses);
    EXPECT_EQ(hr.resumedFromSnapshot, pin.resumed);
    EXPECT_EQ(hr.witnessTries, pin.witnessTries);
    size_t cycles = 0;
    for (const OracleBench &b : hr.witnesses) {
        cycles += b.oracle.size();
        expectGoldenPasses(sc.project->goldenSource, b);
    }
    EXPECT_EQ(cycles, pin.witnessCycles);
    EXPECT_TRUE(hr.correct);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, PinnedHardening,
    ::testing::Values(HardeningPin{"counter_sensitivity", 7, 1, 1, 1, 1, 1},
                      HardeningPin{"lshift_sensitivity", 42, 2, 2, 2, 3, 3},
                      HardeningPin{"lshift_conditional", 42, 1, 1, 1, 1,
                                   1}));

// ------------------------------------------------------------------
// Determinism across thread counts
// ------------------------------------------------------------------

TEST(WitnessDeterminism, HardenedRepairBitIdenticalAcrossThreads)
{
    // The witness search is single-threaded by construction and the
    // engine's determinism contract covers hardened resume: the whole
    // loop must be a pure function of the seed at any thread count.
    Scenario sc = weakenedScenario("counter_sensitivity");
    auto runAt = [&](int threads) {
        EngineConfig cfg = fastConfig(1234);
        cfg.numThreads = threads;
        cfg.snapshotPath =
            tmpPath("harden_threads_" + std::to_string(threads) +
                    ".snap");
        WitnessOptions wo = fastWitnessOptions(1234);
        wo.maxRounds = 2;
        return hardenedRepair(sc, cfg, wo);
    };
    HardenedRepairResult a = runAt(1);
    HardenedRepairResult b = runAt(4);
    HardenedRepairResult c = runAt(8);

    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.rounds, c.rounds);
    EXPECT_EQ(a.overfitKills, b.overfitKills);
    EXPECT_EQ(a.overfitKills, c.overfitKills);
    EXPECT_EQ(a.witnessTries, b.witnessTries);
    EXPECT_EQ(a.witnessTries, c.witnessTries);
    ASSERT_EQ(a.witnesses.size(), b.witnesses.size());
    ASSERT_EQ(a.witnesses.size(), c.witnesses.size());
    for (size_t i = 0; i < a.witnesses.size(); ++i) {
        EXPECT_EQ(a.witnesses[i].source, b.witnesses[i].source);
        EXPECT_EQ(a.witnesses[i].source, c.witnesses[i].source);
        EXPECT_EQ(a.witnesses[i].oracle.toCsv(),
                  b.witnesses[i].oracle.toCsv());
        EXPECT_EQ(a.witnesses[i].oracle.toCsv(),
                  c.witnesses[i].oracle.toCsv());
    }
    EXPECT_EQ(a.result.found, b.result.found);
    EXPECT_EQ(a.result.found, c.result.found);
    if (a.result.found) {
        EXPECT_EQ(a.result.patch.describe(),
                  b.result.patch.describe());
        EXPECT_EQ(a.result.patch.describe(),
                  c.result.patch.describe());
        EXPECT_EQ(a.result.repairedSource, b.result.repairedSource);
        EXPECT_EQ(a.result.repairedSource, c.result.repairedSource);
    }
}

} // namespace
