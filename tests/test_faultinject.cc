/**
 * @file
 * Fault-injection tests for the failure-containment layer: every way a
 * candidate evaluation can die (runaway, wall-clock stall, injected
 * crash, allocation failure, memory budget) must degrade to a
 * worst-fitness Variant with the right EvalOutcome — never an
 * exception out of the engine — and a full repair run over such
 * candidates must finish every generation and report the outcomes.
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaloutcome.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::core;
using namespace cirfix::verilog;
using sim::ProbeConfig;
using sim::TraceRecorder;

namespace {

const char *kGoldenToggle = R"(
module dut (clk, rst, q);
    input clk, rst;
    output q;
    reg q;
    always @(posedge clk) begin
        if (rst == 1'b1) begin
            q <= 1'b0;
        end
        else begin
            q <= !q;
        end
    end
endmodule
module tb;
    reg clk, rst;
    wire q;
    dut d (.clk(clk), .rst(rst), .q(q));
    initial begin
        clk = 0;
        rst = 1;
        #12 rst = 0;
        #100 $finish;
    end
    always #5 clk = !clk;
endmodule
)";

std::string
faultyToggle()
{
    std::string s = kGoldenToggle;
    auto pos = s.find("rst == 1'b1");
    s.replace(pos, 11, "rst != 1'b1");
    return s;
}

struct MiniScenario
{
    std::shared_ptr<const SourceFile> faulty;
    ProbeConfig probe;
    Trace oracle;

    MiniScenario()
    {
        std::shared_ptr<const SourceFile> golden =
            parse(kGoldenToggle);
        probe = sim::deriveProbeConfig(*golden, "tb");
        auto design = sim::elaborate(golden, "tb");
        TraceRecorder rec(*design, probe);
        design->run();
        oracle = rec.takeTrace();
        faulty = parse(faultyToggle());
    }

    RepairEngine
    engine(EngineConfig cfg) const
    {
        return RepairEngine(faulty, "tb", "dut", probe, oracle, cfg);
    }
};

// ------------------------------------------------------------------
// Single-evaluation containment: each injected failure mode maps to
// its EvalOutcome and a worst-fitness (valid=false, fitness 0) result.
// ------------------------------------------------------------------

TEST(FaultInjection, InjectedThrowDegradesToCrashedWorstFitness)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.faultPlan.throwAtStmt = 5;
    auto engine = sc.engine(cfg);
    Variant v = engine.evaluate(Patch{});
    EXPECT_EQ(v.outcome, EvalOutcome::Crashed);
    EXPECT_FALSE(v.valid);
    EXPECT_DOUBLE_EQ(v.fit.fitness, 0.0);
    EXPECT_NE(v.error.find("injected fault"), std::string::npos)
        << v.error;
    EXPECT_EQ(engine.counters().outcomes.of(EvalOutcome::Crashed), 1);
}

TEST(FaultInjection, InjectedStallReapedByDeadlineWatchdog)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.faultPlan.stallAtStmt = 1;   // ~1 ms per statement, no progress
    cfg.evalDeadlineSeconds = 0.05;  // watchdog fires well under a second
    auto engine = sc.engine(cfg);
    Variant v = engine.evaluate(Patch{});
    EXPECT_EQ(v.outcome, EvalOutcome::Deadline);
    EXPECT_FALSE(v.valid);
    EXPECT_DOUBLE_EQ(v.fit.fitness, 0.0);
    EXPECT_EQ(engine.counters().outcomes.of(EvalOutcome::Deadline), 1);
}

TEST(FaultInjection, InjectedAllocationFailureDegradesToOom)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.faultPlan.failAllocAt = 2;
    auto engine = sc.engine(cfg);
    Variant v = engine.evaluate(Patch{});
    EXPECT_EQ(v.outcome, EvalOutcome::Oom);
    EXPECT_FALSE(v.valid);
    EXPECT_DOUBLE_EQ(v.fit.fitness, 0.0);
    EXPECT_NE(v.error.find("injected allocation failure"),
              std::string::npos)
        << v.error;
}

TEST(FaultInjection, MemoryBudgetExhaustionDegradesToOom)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.evalMemoryBudget = 1;  // nothing elaborates in one byte
    auto engine = sc.engine(cfg);
    Variant v = engine.evaluate(Patch{});
    EXPECT_EQ(v.outcome, EvalOutcome::Oom);
    EXPECT_FALSE(v.valid);
    EXPECT_NE(v.error.find("memory budget exhausted"),
              std::string::npos)
        << v.error;
}

// ------------------------------------------------------------------
// Witness benches run under the same containment as the candidate's
// own bench, and a failure names the bench it came from.
// ------------------------------------------------------------------

/** A witness bench around the toggle DUT with @p extra declared in its
 *  testbench module. */
OracleBench
toggleWitnessBench(const std::string &module, const std::string &extra)
{
    OracleBench b;
    b.module = module;
    b.source = "module " + module + ";\n"
               "    reg clk, rst;\n"
               "    wire q;\n" +
               extra +
               "    dut d (.clk(clk), .rst(rst), .q(q));\n"
               "    initial begin\n"
               "        clk = 0;\n"
               "        rst = 1;\n"
               "        #12 rst = 0;\n"
               "        #40 $finish;\n"
               "    end\n"
               "    always #5 clk = !clk;\n"
               "endmodule\n";
    b.probe.clock = "clk";
    b.probe.signals = {"q"};
    return b;
}

TEST(FaultInjection, WitnessBenchOverTheMemoryBudgetDegradesToOom)
{
    MiniScenario sc;
    EngineConfig cfg;
    // ~4M 8-bit words: far over the default 64 MiB budget, refused
    // before a word is allocated.
    cfg.witnessBenches.push_back(toggleWitnessBench(
        "wtb_big", "    reg [7:0] big [0:4194303];\n"));
    auto engine = sc.engine(cfg);
    Variant v = engine.evaluate(Patch{});
    EXPECT_EQ(v.outcome, EvalOutcome::Oom);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(v.error.rfind("witness bench 'wtb_big': ", 0), 0u)
        << v.error;
    EXPECT_NE(v.error.find("memory budget exhausted"), std::string::npos)
        << v.error;
}

TEST(FaultInjection, WitnessBenchRunawayKeepsItsOutcomeAndMessage)
{
    MiniScenario sc;
    EngineConfig cfg;
    // A zero-delay loop inside a process: the statement budget ends
    // the witness run in-process; the candidate's own bench is fine.
    cfg.witnessBenches.push_back(toggleWitnessBench(
        "wtb_spin", "    reg spin;\n"
                    "    initial forever spin = !spin;\n"));
    auto engine = sc.engine(cfg);
    Variant v = engine.evaluate(Patch{});
    EXPECT_EQ(v.outcome, EvalOutcome::Runaway);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(v.error, "witness bench 'wtb_spin': statement budget "
                       "exhausted");
}

// ------------------------------------------------------------------
// Runaway mutants (statement-budget exhaustion) end-to-end: worst
// fitness, not a throw — through the serial path, the parallel path,
// and a repeat lookup answered by the quarantine.
// ------------------------------------------------------------------

EngineConfig
runawayConfig()
{
    EngineConfig cfg;
    // A statement budget this small makes every candidate (including
    // the unpatched original) a runaway mutant.
    cfg.simLimits.maxStatements = 5;
    cfg.popSize = 8;
    cfg.maxGenerations = 2;
    cfg.maxSeconds = 60.0;
    cfg.seed = 42;
    return cfg;
}

TEST(FaultInjection, RunawayYieldsWorstFitnessNotThrow)
{
    MiniScenario sc;
    auto engine = sc.engine(runawayConfig());
    Variant v;
    ASSERT_NO_THROW(v = engine.evaluate(Patch{}));
    EXPECT_EQ(v.outcome, EvalOutcome::Runaway);
    EXPECT_FALSE(v.valid);
    EXPECT_DOUBLE_EQ(v.fit.fitness, 0.0);
}

TEST(FaultInjection, QuarantineAnswersRepeatLookupWithoutSimulating)
{
    MiniScenario sc;
    auto engine = sc.engine(runawayConfig());
    Variant first = engine.evaluate(Patch{});
    ASSERT_EQ(first.outcome, EvalOutcome::Runaway);
    EXPECT_EQ(engine.quarantineSize(), 1u);
    long misses_after_first = engine.counters().cache.misses;

    Variant again = engine.evaluate(Patch{});
    EXPECT_EQ(again.outcome, EvalOutcome::Runaway);
    EXPECT_FALSE(again.valid);
    EXPECT_DOUBLE_EQ(again.fit.fitness, 0.0);
    // Quarantine short-circuits before the cache: no new miss, no new
    // simulation, and the hit is accounted separately.
    EXPECT_EQ(engine.counters().cache.misses, misses_after_first);
    EXPECT_EQ(engine.counters().outcomes.quarantineHits, 1);
    EXPECT_EQ(engine.counters().outcomes.of(EvalOutcome::Runaway), 1);
}

TEST(FaultInjection, RunawayRunFinishesEveryGenerationSerialAndParallel)
{
    MiniScenario sc;
    std::vector<RepairResult> results;
    for (int threads : {1, 4}) {
        EngineConfig cfg = runawayConfig();
        cfg.numThreads = threads;
        auto engine = sc.engine(cfg);
        RepairResult res;
        ASSERT_NO_THROW(res = engine.run());
        EXPECT_FALSE(res.found);
        EXPECT_EQ(res.generations, cfg.maxGenerations);
        EXPECT_GT(res.outcomes.of(EvalOutcome::Runaway), 0);
        EXPECT_EQ(res.outcomes.of(EvalOutcome::Ok), 0);
        results.push_back(std::move(res));
    }
    // The containment path preserves PR 1's determinism contract.
    EXPECT_EQ(results[0].totalMutants, results[1].totalMutants);
    EXPECT_EQ(results[0].outcomes.counts, results[1].outcomes.counts);
    EXPECT_EQ(results[0].outcomes.quarantineHits,
              results[1].outcomes.quarantineHits);
}

// ------------------------------------------------------------------
// Whole-run containment: injected failures never abort a generation.
// ------------------------------------------------------------------

TEST(FaultInjection, InjectedCrashNeverAbortsAGeneration)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.faultPlan.throwAtStmt = 5;
    cfg.popSize = 8;
    cfg.maxGenerations = 2;
    cfg.maxSeconds = 60.0;
    cfg.seed = 7;
    auto engine = sc.engine(cfg);
    RepairResult res;
    ASSERT_NO_THROW(res = engine.run());
    EXPECT_FALSE(res.found);
    EXPECT_EQ(res.generations, cfg.maxGenerations);
    EXPECT_GT(res.outcomes.of(EvalOutcome::Crashed), 0);
    EXPECT_GT(res.totalMutants, 0);
}

TEST(FaultInjection, OutcomeSummaryIsReadable)
{
    OutcomeCounts c;
    c.add(EvalOutcome::Ok);
    c.add(EvalOutcome::Ok);
    c.add(EvalOutcome::Runaway);
    c.quarantineHits = 3;
    EXPECT_EQ(c.total(), 3);
    EXPECT_EQ(c.failures(), 1);
    std::string s = c.summary();
    EXPECT_NE(s.find("ok=2"), std::string::npos) << s;
    EXPECT_NE(s.find("runaway=1"), std::string::npos) << s;
    EXPECT_NE(s.find("quarantine-hits=3"), std::string::npos) << s;
}

TEST(FaultInjection, OutcomeNamesRoundTrip)
{
    for (int i = 0; i < kEvalOutcomeCount; ++i) {
        EvalOutcome o = static_cast<EvalOutcome>(i);
        EXPECT_EQ(evalOutcomeFromName(evalOutcomeName(o)), o);
    }
    EXPECT_THROW(evalOutcomeFromName("no-such-outcome"),
                 std::runtime_error);
}

// ------------------------------------------------------------------
// Pool-level failure accounting (jobs that throw are not silent).
// ------------------------------------------------------------------

TEST(FaultInjection, PoolCapturesJobFailureMessages)
{
    for (int threads : {1, 4}) {
        EvalPool pool(threads);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 4; ++i)
            jobs.push_back([i] {
                if (i == 2)
                    throw std::runtime_error("boom " +
                                             std::to_string(i));
            });
        EXPECT_THROW(pool.run(jobs), std::runtime_error);
        EXPECT_EQ(pool.jobFailures(), 1);
        ASSERT_EQ(pool.lastErrorMessages().size(), 4u);
        EXPECT_EQ(pool.lastErrorMessages()[2], "boom 2");
        EXPECT_EQ(pool.lastErrorMessages()[0], "");
    }
}

} // namespace
