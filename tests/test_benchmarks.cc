/**
 * @file
 * Tests for the benchmark suite itself: every project's golden design
 * passes both of its testbenches, and the suite matches the paper's
 * Table 2/3 structure.
 */

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "core/scenario.h"
#include "service/session.h"
#include "verilog/printer.h"

using namespace cirfix;
using namespace cirfix::core;

namespace {

TEST(Benchmarks, ElevenProjectsInTable2Order)
{
    auto &projects = bench::allProjects();
    ASSERT_EQ(projects.size(), 11u);
    EXPECT_EQ(projects[0].name, "decoder_3_to_8");
    EXPECT_EQ(projects[1].name, "counter");
    EXPECT_EQ(projects[10].name, "sdram_controller");
    for (auto &p : projects) {
        EXPECT_FALSE(p.description.empty());
        EXPECT_FALSE(p.goldenSource.empty());
        EXPECT_FALSE(p.testbenchSource.empty());
        EXPECT_FALSE(p.verifySource.empty());
        EXPECT_GT(p.projectLoc(), 10);
        EXPECT_GT(p.testbenchLoc(), 10);
    }
}

TEST(Benchmarks, LookupByName)
{
    EXPECT_EQ(bench::getProject("sha3").name, "sha3");
    EXPECT_THROW(bench::getProject("nope"), std::out_of_range);
    EXPECT_EQ(bench::getDefect("counter_sensitivity").project,
              "counter");
    EXPECT_THROW(bench::getDefect("nope"), std::out_of_range);
}

TEST(Benchmarks, ThirtyTwoDefectsWithPaperCategories)
{
    auto &defects = bench::allDefects();
    ASSERT_EQ(defects.size(), 32u);
    int cat1 = 0, cat2 = 0;
    int correct = 0, plausible = 0, norepair = 0;
    for (auto &d : defects) {
        EXPECT_TRUE(d.category == 1 || d.category == 2) << d.id;
        (d.category == 1 ? cat1 : cat2)++;
        switch (d.paperOutcome) {
          case PaperOutcome::Correct: ++correct; break;
          case PaperOutcome::PlausibleOnly: ++plausible; break;
          case PaperOutcome::NoRepair: ++norepair; break;
        }
        EXPECT_FALSE(d.rewrites.empty()) << d.id;
        EXPECT_NO_THROW(bench::getProject(d.project)) << d.id;
    }
    // Table 3: 19 category-1 and 13 category-2 defects; 16 correct,
    // 5 plausible-only, 11 no-repair.
    EXPECT_EQ(cat1, 19);
    EXPECT_EQ(cat2, 13);
    EXPECT_EQ(correct, 16);
    EXPECT_EQ(plausible, 5);
    EXPECT_EQ(norepair, 11);
}

TEST(Benchmarks, EveryProjectHasDefects)
{
    for (auto &p : bench::allProjects()) {
        auto ds = bench::defectsForProject(p.name);
        EXPECT_GE(ds.size(), 2u) << p.name;
        EXPECT_LE(ds.size(), 4u) << p.name;
    }
}

TEST(Benchmarks, RewritesApplyCleanly)
{
    for (auto &d : bench::allDefects()) {
        auto &p = bench::getProject(d.project);
        std::string faulty;
        ASSERT_NO_THROW(faulty =
                            applyRewrites(p.goldenSource, d.rewrites))
            << d.id;
        EXPECT_NE(faulty, p.goldenSource) << d.id;
    }
}

TEST(Benchmarks, RewriteOnMissingPatternThrows)
{
    EXPECT_THROW(applyRewrites("abc", {{"zzz", "yyy"}}),
                 std::runtime_error);
}

class GoldenProject : public ::testing::TestWithParam<int>
{
};

TEST_P(GoldenProject, GoldenTracesAreCleanOnBothBenches)
{
    const ProjectSpec &p =
        bench::allProjects()[static_cast<size_t>(GetParam())];
    for (bool verify : {false, true}) {
        Trace t = recordGoldenTrace(p, verify);
        ASSERT_GE(t.size(), 5u) << p.name;
        // The final samples of a settled golden design are defined.
        for (auto &v : t.rows().back().values)
            EXPECT_FALSE(v.hasUnknown())
                << p.name << (verify ? " verify" : " repair");
    }
}

INSTANTIATE_TEST_SUITE_P(AllProjects, GoldenProject,
                         ::testing::Range(0, 11));

class DefectScenario : public ::testing::TestWithParam<int>
{
};

TEST_P(DefectScenario, DefectIsVisibleAndNotPlausible)
{
    const DefectSpec &d =
        bench::allDefects()[static_cast<size_t>(GetParam())];
    const ProjectSpec &p = bench::getProject(d.project);
    Scenario sc = buildScenario(p, d);
    EngineConfig cfg;
    FitnessResult fit = sc.baselineFitness(cfg);
    // Requirements of Section 4.1.3: the transplanted defect compiles
    // and changes externally visible behavior.
    EXPECT_FALSE(fit.plausible()) << d.id;
    EXPECT_LT(fit.fitness, 1.0) << d.id;
    // The faulty design still parses/elaborates (fitness computable
    // over a non-empty oracle).
    EXPECT_GT(sc.oracle.size(), 0u) << d.id;
}

TEST_P(DefectScenario, GoldenPassesVerificationOracle)
{
    const DefectSpec &d =
        bench::allDefects()[static_cast<size_t>(GetParam())];
    const ProjectSpec &p = bench::getProject(d.project);
    Scenario sc = buildScenario(p, d);
    // An empty patch on the *golden* design (simulated via
    // checkCorrectness against a scenario whose "faulty" source is
    // golden) must pass: build such a scenario with no rewrites.
    DefectSpec nodefect = d;
    nodefect.rewrites.clear();
    Scenario golden_sc = buildScenario(p, nodefect);
    EXPECT_TRUE(checkCorrectness(golden_sc, Patch{})) << d.id;
}

TEST_P(DefectScenario, JobInputsMatchTheScenario)
{
    // The job a client would send for this defect: the faulty DUT with
    // the repair testbench as its design, the golden source as oracle.
    const DefectSpec &d =
        bench::allDefects()[static_cast<size_t>(GetParam())];
    const ProjectSpec &p = bench::getProject(d.project);
    service::JobSpec spec;
    spec.designSource = applyRewrites(p.goldenSource, d.rewrites) + "\n" +
                        p.testbenchSource;
    spec.tbModule = p.tbModule;
    spec.dutModule = d.repairModule.empty() ? p.dutModule : d.repairModule;
    spec.goldenSource = p.goldenSource;
    service::JobInputs in = service::buildJobInputs(spec);

    Scenario sc = buildScenario(p, d);
    EXPECT_EQ(verilog::print(*in.faulty), verilog::print(*sc.faulty))
        << d.id;
    EXPECT_EQ(in.probe.clock, sc.probe.clock) << d.id;
    EXPECT_EQ(in.probe.signals, sc.probe.signals) << d.id;
    EXPECT_EQ(in.probe.startTime, sc.probe.startTime) << d.id;
    EXPECT_EQ(in.oracle.toCsv(), sc.oracle.toCsv()) << d.id;
}

INSTANTIATE_TEST_SUITE_P(AllDefects, DefectScenario,
                         ::testing::Range(0, 32));

} // namespace
