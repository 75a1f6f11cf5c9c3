/**
 * @file
 * Tests for the semantic lint subsystem: one positive/negative pair
 * per registered check, the fingerprint/waiver machinery behind the
 * mutant pre-screen, golden-lint coverage of the whole benchmark
 * registry (the pre-screen must never reject the correct repair), the
 * LintReject determinism contract at several thread counts, and a
 * differential test of the engine's module-scoped pre-screen against
 * whole-file validation and lint over random patches of every defect.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "core/engine.h"
#include "core/mutation.h"
#include "core/scenario.h"
#include "lint/lint.h"
#include "verilog/parser.h"
#include "verilog/validate.h"

using namespace cirfix;
using namespace cirfix::lint;

namespace {

Result
lintSrc(const std::string &src, const Options &opts = {})
{
    auto file = verilog::parse(src);
    return run(*file, opts);
}

/** Unwaived check ids present in a result. */
std::multiset<std::string>
checkIds(const Result &r)
{
    std::multiset<std::string> ids;
    for (auto &d : r.diags)
        if (!d.waived)
            ids.insert(d.check);
    return ids;
}

bool
has(const Result &r, const std::string &check)
{
    return checkIds(r).count(check) > 0;
}

// ------------------------------------------------------------------
// Registry
// ------------------------------------------------------------------

TEST(LintRegistry, TenChecksWithUniqueIds)
{
    auto &reg = checkRegistry();
    EXPECT_EQ(reg.size(), 10u);
    std::set<std::string> ids;
    for (auto &c : reg) {
        EXPECT_TRUE(ids.insert(c.id).second) << c.id;
        EXPECT_NE(std::string(c.summary), "");
    }
    // Error severity is reserved for doomed designs; the pre-screen
    // rejects on these, so adding one is a semantic decision.
    std::set<std::string> errors;
    for (auto &c : reg)
        if (c.defaultSeverity == Severity::Error)
            errors.insert(c.id);
    EXPECT_EQ(errors, (std::set<std::string>{
                          "multi-driven-net", "comb-loop",
                          "empty-sens"}));
}

// ------------------------------------------------------------------
// Per-check positives and negatives
// ------------------------------------------------------------------

TEST(LintChecks, MultiDrivenNet)
{
    Result r = lintSrc(R"(
module m(input a, input b, output y);
    assign y = a;
    assign y = b;
endmodule
)");
    EXPECT_TRUE(has(r, "multi-driven-net"));
    EXPECT_EQ(r.errors, 1);

    Result clean = lintSrc(
        "module m(input a, output y); assign y = a; endmodule");
    EXPECT_FALSE(has(clean, "multi-driven-net"));
    EXPECT_EQ(clean.errors, 0);
}

TEST(LintChecks, MultiDrivenReg)
{
    Result r = lintSrc(R"(
module m(input clk);
    reg q;
    always @(posedge clk) q <= 1'b1;
    always @(posedge clk) q <= 1'b0;
endmodule
)");
    EXPECT_TRUE(has(r, "multi-driven-reg"));

    Result clean = lintSrc(R"(
module m(input clk);
    reg q;
    always @(posedge clk) q <= !q;
endmodule
)");
    EXPECT_FALSE(has(clean, "multi-driven-reg"));
}

TEST(LintChecks, MixedAssign)
{
    Result r = lintSrc(R"(
module m(input clk, input d);
    reg q;
    always @(posedge clk) begin
        q = d;
        q <= d;
    end
endmodule
)");
    EXPECT_TRUE(has(r, "mixed-assign"));

    Result clean = lintSrc(R"(
module m(input clk, input d);
    reg q;
    always @(posedge clk) q <= d;
endmodule
)");
    EXPECT_FALSE(has(clean, "mixed-assign"));
}

TEST(LintChecks, DuplicateDecl)
{
    Result r = lintSrc("module m; wire w; wire w; endmodule");
    EXPECT_TRUE(has(r, "duplicate-decl"));

    Result clean = lintSrc("module m; wire w; wire x; endmodule");
    EXPECT_FALSE(has(clean, "duplicate-decl"));
}

TEST(LintChecks, CombLoop)
{
    Result r = lintSrc(R"(
module m;
    wire a, b;
    assign a = ~b;
    assign b = ~a;
endmodule
)");
    EXPECT_TRUE(has(r, "comb-loop"));
    EXPECT_GE(r.errors, 1);

    Result clean = lintSrc(R"(
module m(input x);
    wire a, b;
    assign a = ~x;
    assign b = ~a;
endmodule
)");
    EXPECT_FALSE(has(clean, "comb-loop"));
}

TEST(LintChecks, EmptySensitivity)
{
    // The parser cannot produce an empty event list from source, so
    // mutate the AST the same way a mutation operator could.
    auto file = verilog::parse(
        "module m; reg q; always @(q) q <= !q; endmodule");
    for (auto &it : file->modules[0]->items)
        if (it->kind == verilog::NodeKind::AlwaysBlock)
            it->as<verilog::AlwaysBlock>()
                ->body->as<verilog::EventCtrl>()
                ->events.clear();
    Result r = run(*file);
    EXPECT_TRUE(has(r, "empty-sens"));
    EXPECT_EQ(r.errors, 1);

    Result clean = lintSrc(
        "module m; reg q; always @(q) q <= !q; endmodule");
    EXPECT_FALSE(has(clean, "empty-sens"));
}

TEST(LintChecks, IncompleteSensitivity)
{
    Result r = lintSrc(R"(
module m(input a, input b, output reg y);
    always @(a) y = a & b;
endmodule
)");
    EXPECT_TRUE(has(r, "incomplete-sens"));

    Result clean = lintSrc(R"(
module m(input a, input b, output reg y);
    always @(a or b) y = a & b;
endmodule
)");
    EXPECT_FALSE(has(clean, "incomplete-sens"));
}

TEST(LintChecks, IncompleteSensitivityIgnoresBlockComputedReads)
{
    // `t` is written before it is read inside the same block — it is
    // an intermediate, not an input, and must not appear in the
    // missing-signal set (regression: sha3's theta/chi temporaries).
    Result r = lintSrc(R"(
module m(input a, output reg y);
    reg t;
    always @(a) begin
        t = ~a;
        y = t;
    end
endmodule
)");
    EXPECT_FALSE(has(r, "incomplete-sens"));
}

TEST(LintChecks, InferredLatch)
{
    Result r = lintSrc(R"(
module m(input en, input d, output reg q);
    always @(*) begin
        if (en)
            q = d;
    end
endmodule
)");
    EXPECT_TRUE(has(r, "inferred-latch"));

    Result clean = lintSrc(R"(
module m(input en, input d, output reg q);
    always @(*) begin
        if (en)
            q = d;
        else
            q = 1'b0;
    end
endmodule
)");
    EXPECT_FALSE(has(clean, "inferred-latch"));
}

TEST(LintChecks, ForLoopCounterClean)
{
    // Loop control executes a bounded number of times per delta cycle:
    // the counter is neither a combinational feedback loop nor a latch
    // nor a missing sensitivity (regression: sha3's `for (i = ...)`).
    Result r = lintSrc(R"(
module m(input [3:0] d, output reg [3:0] y);
    integer i;
    always @(*) begin
        for (i = 0; i < 4; i = i + 1)
            y[i] = ~d[i];
    end
endmodule
)");
    EXPECT_FALSE(has(r, "comb-loop"));
    EXPECT_FALSE(has(r, "inferred-latch"));
    EXPECT_FALSE(has(r, "incomplete-sens"));
    EXPECT_EQ(r.errors, 0);
}

TEST(LintChecks, WidthMismatch)
{
    Result r = lintSrc(R"(
module m(input [7:0] a, output y);
    assign y = a;
endmodule
)");
    EXPECT_TRUE(has(r, "width-mismatch"));

    Result clean = lintSrc(R"(
module m(input [7:0] a, output [7:0] y);
    assign y = a;
endmodule
)");
    EXPECT_FALSE(has(clean, "width-mismatch"));
}

TEST(LintChecks, WidthMismatchArrayElementWidth)
{
    // `mem[addr]` selects an 8-bit element, not one bit of a vector —
    // storing an 8-bit value is exact (regression: ahb memories).
    Result r = lintSrc(R"(
module m(input clk, input [7:0] d, input [3:0] addr);
    reg [7:0] mem [0:15];
    always @(posedge clk) mem[addr] <= d;
endmodule
)");
    EXPECT_FALSE(has(r, "width-mismatch"));
}

TEST(LintChecks, DeadCode)
{
    Result r = lintSrc(R"(
module m;
    initial begin
        if (1'b0)
            $display("never");
    end
endmodule
)");
    EXPECT_TRUE(has(r, "dead-code"));

    Result after_finish = lintSrc(R"(
module m;
    initial begin
        $finish;
        $display("never");
    end
endmodule
)");
    EXPECT_TRUE(has(after_finish, "dead-code"));

    Result clean = lintSrc(R"(
module m(input c);
    initial begin
        if (c)
            $display("maybe");
        $finish;
    end
endmodule
)");
    EXPECT_FALSE(has(clean, "dead-code"));
}

// ------------------------------------------------------------------
// Severity overrides and waivers
// ------------------------------------------------------------------

TEST(LintOptions, SeverityOverridePromotesAndDisables)
{
    const std::string src = R"(
module m(input [7:0] a, output y);
    assign y = a;
endmodule
)";
    Result def = lintSrc(src);
    EXPECT_EQ(def.errors, 0);
    EXPECT_GE(def.warnings, 1);

    Options promote;
    promote.overrides["width-mismatch"] = Severity::Error;
    Result err = lintSrc(src, promote);
    EXPECT_GE(err.errors, 1);

    Options off;
    off.overrides["width-mismatch"] = Severity::Off;
    Result none = lintSrc(src, off);
    EXPECT_FALSE(has(none, "width-mismatch"));
    EXPECT_EQ(none.warnings, 0);
}

TEST(LintOptions, WaiverWildcardsMatchByPrecision)
{
    const std::string src = R"(
module m(input [7:0] a, output y);
    assign y = a;
endmodule
)";
    for (Waiver w : {Waiver{"width-mismatch", "", ""},
                     Waiver{"width-mismatch", "m", ""},
                     Waiver{"width-mismatch", "m", "y"}}) {
        Options opts;
        opts.waivers.push_back(w);
        Result r = lintSrc(src, opts);
        ASSERT_EQ(r.diags.size(), 1u);
        EXPECT_TRUE(r.diags[0].waived);
        EXPECT_EQ(r.warnings, 0);
    }
    // A waiver naming a different module/signal must not match.
    for (Waiver w : {Waiver{"width-mismatch", "other", ""},
                     Waiver{"width-mismatch", "m", "a"}}) {
        Options opts;
        opts.waivers.push_back(w);
        Result r = lintSrc(src, opts);
        EXPECT_EQ(r.warnings, 1);
    }
}

TEST(LintOptions, ParseWaivers)
{
    auto ws = parseWaivers(
        "# comment\n"
        "\n"
        "inferred-latch\n"
        "width-mismatch tb\n"
        "mixed-assign tb data  # trailing comment\n");
    ASSERT_EQ(ws.size(), 3u);
    EXPECT_EQ(ws[0].check, "inferred-latch");
    EXPECT_EQ(ws[0].module, "");
    EXPECT_EQ(ws[1].module, "tb");
    EXPECT_EQ(ws[2].signal, "data");

    EXPECT_THROW(parseWaivers("no-such-check\n"), std::runtime_error);
    EXPECT_THROW(parseWaivers("inferred-latch a b extra\n"),
                 std::runtime_error);
}

// ------------------------------------------------------------------
// Fingerprint and newErrorCount (the pre-screen primitive)
// ------------------------------------------------------------------

TEST(LintFingerprint, SpanFreeAndErrorsOnly)
{
    Result a = lintSrc(
        "module m(input a, input b, output y);\n"
        "assign y = a;\nassign y = b;\nendmodule\n");
    // Same defect, shifted several lines down: identical fingerprint.
    Result b = lintSrc(
        "\n\n\n\nmodule m(input a, input b, output y);\n"
        "assign y = a;\nassign y = b;\nendmodule\n");
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    ASSERT_EQ(fingerprint(a).size(), 1u);
    EXPECT_EQ(fingerprint(a).begin()->first, "multi-driven-net|m|y");

    // Warning-severity findings never enter the fingerprint.
    Result warn = lintSrc(
        "module m(input [7:0] a, output y); assign y = a; endmodule");
    EXPECT_GE(warn.warnings, 1);
    EXPECT_TRUE(fingerprint(warn).empty());
}

TEST(LintFingerprint, NewErrorCountDiffsAgainstBaseline)
{
    Result broken = lintSrc(
        "module m(input a, input b, output y);\n"
        "assign y = a;\nassign y = b;\nendmodule\n");

    // Pre-existing wart: baseline multiplicity absorbs it.
    EXPECT_EQ(newErrorCount(fingerprint(broken), broken), 0);

    // Fresh error vs a clean baseline: counted, message surfaced.
    std::string msg;
    EXPECT_EQ(newErrorCount({}, broken, &msg), 1);
    EXPECT_NE(msg.find("y"), std::string::npos);

    // Clean candidate vs broken baseline: fixing a wart is free.
    Result clean = lintSrc(
        "module m(input a, output y); assign y = a; endmodule");
    EXPECT_EQ(newErrorCount(fingerprint(broken), clean), 0);
}

TEST(LintRender, TextAndJsonCarryTheDiagnostic)
{
    Result r = lintSrc(
        "module m(input a, input b, output y);\n"
        "assign y = a;\nassign y = b;\nendmodule\n");
    std::string text = renderText(r);
    EXPECT_NE(text.find("[multi-driven-net]"), std::string::npos);
    EXPECT_NE(text.find("error"), std::string::npos);
    EXPECT_NE(text.find("1 error(s)"), std::string::npos);

    std::string json = renderJson(r);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"check\": \"multi-driven-net\""),
              std::string::npos);
    EXPECT_NE(json.find("\"signal\": \"y\""), std::string::npos);
    EXPECT_NE(json.find("\"waived\": false"), std::string::npos);
}

// ------------------------------------------------------------------
// Golden-lint coverage of the benchmark registry
// ------------------------------------------------------------------

/** Every golden design (with its testbench) lints clean. */
TEST(GoldenLint, GoldenDesignsAreClean)
{
    for (const core::ProjectSpec &p : bench::allProjects()) {
        auto file = verilog::parse(p.goldenSource + "\n" +
                                   p.testbenchSource);
        Result r = run(*file);
        EXPECT_EQ(r.errors, 0) << p.name << ":\n" << renderText(r);
        EXPECT_EQ(r.warnings, 0) << p.name << ":\n" << renderText(r);
    }
}

/**
 * Diagnostic counts over all 43 suite designs (11 goldens and 32
 * defects, each with its repair testbench), pinned exactly from an
 * earlier build. A check that starts firing more (a new false
 * positive) or less (lost coverage) on the suite moves one of them.
 */
TEST(GoldenLint, SuiteDiagnosticCountsArePinned)
{
    int golden_errors = 0, golden_warnings = 0;
    int defect_errors = 0, defect_warnings = 0;
    std::map<std::string, int> by_check;
    size_t designs = 0;
    auto sweep = [&](const std::string &src, int &errors, int &warnings) {
        Result r = run(*verilog::parse(src));
        errors += r.errors;
        warnings += r.warnings;
        for (const std::string &id : checkIds(r))
            ++by_check[id];
        ++designs;
    };
    for (const core::ProjectSpec &p : bench::allProjects())
        sweep(p.goldenSource + "\n" + p.testbenchSource, golden_errors,
              golden_warnings);
    for (const core::DefectSpec &d : bench::allDefects()) {
        const core::ProjectSpec &p = bench::getProject(d.project);
        sweep(core::applyRewrites(p.goldenSource, d.rewrites) + "\n" +
                  p.testbenchSource,
              defect_errors, defect_warnings);
    }
    EXPECT_EQ(designs, 43u);
    EXPECT_EQ(golden_errors, 0);
    EXPECT_EQ(golden_warnings, 0);
    EXPECT_EQ(defect_errors, 0);
    EXPECT_EQ(defect_warnings, 14);
    EXPECT_EQ(by_check, (std::map<std::string, int>{
                            {"incomplete-sens", 2},
                            {"inferred-latch", 3},
                            {"mixed-assign", 3},
                            {"width-mismatch", 6},
                        }));
}

/**
 * The pre-screen contract over all 32 seeded defects: with the faulty
 * design as baseline, the *correct repair* (the golden source) never
 * introduces a new error-severity finding — i.e. the lint gate can
 * never reject the patch the search is looking for.
 */
TEST(GoldenLint, PrescreenNeverRejectsTheCorrectRepair)
{
    size_t defects = 0;
    for (const core::DefectSpec &d : bench::allDefects()) {
        const core::ProjectSpec &p = bench::getProject(d.project);
        auto faulty = verilog::parse(
            core::applyRewrites(p.goldenSource, d.rewrites) + "\n" +
            p.testbenchSource);
        Fingerprint baseline = fingerprint(run(*faulty));

        auto golden = verilog::parse(p.goldenSource + "\n" +
                                     p.testbenchSource);
        std::string msg;
        EXPECT_EQ(newErrorCount(baseline, run(*golden), &msg), 0)
            << d.id << ": " << msg;
        ++defects;
    }
    EXPECT_EQ(defects, bench::allDefects().size());
    EXPECT_GE(defects, 32u);
}

// ------------------------------------------------------------------
// LintReject determinism in the repair loop
// ------------------------------------------------------------------

/**
 * With the pre-screen on, a trial that actually rejects candidates
 * must still be bit-identical for a given seed at any thread count —
 * including the lintRejects counter itself.
 */
TEST(LintPrescreen, RejectionIsDeterministicAcrossThreadCounts)
{
    const core::ProjectSpec &p = bench::getProject("flip_flop");
    const core::DefectSpec &d =
        bench::getDefect("flipflop_conditional");
    core::Scenario sc = core::buildScenario(p, d);

    core::EngineConfig cfg;
    cfg.popSize = 20;
    cfg.maxGenerations = 6;
    cfg.seed = 7;
    cfg.maxSeconds = 1e9;

    std::vector<core::RepairResult> results;
    for (int threads : {1, 4, 8}) {
        core::EngineConfig c = cfg;
        c.numThreads = threads;
        core::RepairEngine engine = sc.makeEngine(c);
        results.push_back(engine.run());
    }

    const core::RepairResult &ref = results[0];
    // The scenario is chosen because its mutants readily manufacture
    // zero-delay feedback loops; a zero here means the pre-screen
    // stopped doing anything and the test lost its subject.
    EXPECT_GT(ref.lintRejects, 0);
    for (size_t i = 1; i < results.size(); ++i) {
        const core::RepairResult &r = results[i];
        EXPECT_EQ(r.found, ref.found);
        EXPECT_EQ(r.patch.key(), ref.patch.key());
        EXPECT_EQ(r.repairedSource, ref.repairedSource);
        EXPECT_EQ(r.generations, ref.generations);
        EXPECT_EQ(r.fitnessEvals, ref.fitnessEvals);
        EXPECT_EQ(r.totalMutants, ref.totalMutants);
        EXPECT_EQ(r.invalidMutants, ref.invalidMutants);
        EXPECT_EQ(r.lintRejects, ref.lintRejects);
        EXPECT_EQ(r.earlyAborts, ref.earlyAborts);
        EXPECT_EQ(r.fitnessTrajectory, ref.fitnessTrajectory);
    }
}

/** Turning the pre-screen off must not change the repair itself. */
TEST(LintPrescreen, OffAndOnAgreeOnTheRepair)
{
    const core::ProjectSpec &p = bench::getProject("flip_flop");
    const core::DefectSpec &d =
        bench::getDefect("flipflop_conditional");
    core::Scenario sc = core::buildScenario(p, d);

    core::EngineConfig cfg;
    cfg.popSize = 20;
    cfg.maxGenerations = 6;
    cfg.seed = 7;
    cfg.maxSeconds = 1e9;
    cfg.numThreads = 4;

    core::EngineConfig off_cfg = cfg;
    off_cfg.lintPrescreen = false;

    core::RepairEngine on_engine = sc.makeEngine(cfg);
    core::RepairResult on = on_engine.run();
    core::RepairEngine off_engine = sc.makeEngine(off_cfg);
    core::RepairResult off = off_engine.run();

    EXPECT_GT(on.lintRejects, 0);
    EXPECT_EQ(off.lintRejects, 0);
    EXPECT_EQ(on.found, off.found);
    EXPECT_EQ(on.patch.key(), off.patch.key());
    EXPECT_EQ(on.repairedSource, off.repairedSource);
    EXPECT_EQ(on.generations, off.generations);
    EXPECT_DOUBLE_EQ(on.finalFitness.fitness, off.finalFitness.fitness);
}

// ------------------------------------------------------------------
// The module-scoped pre-screen against whole-file checks
// ------------------------------------------------------------------

/** Ids of every node under @p mod that are at least @p from. */
std::unordered_set<int>
nodeIds(const verilog::Module &mod, int from = 0)
{
    std::unordered_set<int> ids;
    verilog::visitAll(const_cast<verilog::Module &>(mod),
                      [&](verilog::Node &n) {
                          if (n.id >= from)
                              ids.insert(n.id);
                      });
    return ids;
}

/**
 * The engine validates and lints only the modules a patch edits
 * (RepairEngine::screen). Over seeded random patches of all 32
 * defects — single mutations and template edits in any module, and
 * 2–3-edit chains whose later edits target nodes the earlier ones
 * created — its verdict must equal whole-file isValid() and
 * newErrorCount(baseline, run(patched)) > 0, with the same first
 * message, under the default options and under an override set.
 */
TEST(LintPrescreen, ScopedScreenMatchesWholeFileChecks)
{
    Options promoted;
    promoted.overrides = {{"inferred-latch", Severity::Error},
                          {"width-mismatch", Severity::Error},
                          {"comb-loop", Severity::Off}};
    promoted.waivers = {{"multi-driven-net", "", ""}};

    constexpr int kPatchesPerDefect = 45;
    core::MutationConfig mcfg;
    mcfg.extendedTemplates = true;
    core::MutationConfig anywhere = mcfg;
    anywhere.useFixLoc = false;  // donors from every module, testbench
                                 // included: some patches won't validate
    std::mt19937_64 rng(20261019);
    core::Mutator local(rng, mcfg);
    core::Mutator wide(rng, anywhere);

    for (const Options &opts : {Options{}, promoted}) {
        long patches = 0, scoped = 0, chained = 0, invalid = 0;
        long rejects = 0, mismatches = 0;
        for (const core::DefectSpec &d : bench::allDefects()) {
            const core::ProjectSpec &p = bench::getProject(d.project);
            std::shared_ptr<const verilog::SourceFile> faulty =
                verilog::parse(
                    core::applyRewrites(p.goldenSource, d.rewrites) +
                    "\n" + p.testbenchSource);
            core::EngineConfig cfg;
            cfg.lintOptions = opts;
            core::RepairEngine engine(faulty, p.tbModule, p.dutModule, {},
                                      {}, cfg);
            const Fingerprint baseline = fingerprint(run(*faulty, opts));
            const size_t nmods = faulty->modules.size();

            for (int i = 0; i < kPatchesPerDefect; ++i) {
                core::Patch patch;
                const int edits = 1 + i % 3;
                bool chain = false;
                for (int k = 0; k < edits; ++k) {
                    auto ast = core::applyPatch(*faulty, patch);
                    // A later edit targets what the earlier ones
                    // created when it can; otherwise any node of a
                    // random module (testbench included).
                    const verilog::Module *mod = nullptr;
                    std::unordered_set<int> fl;
                    for (auto &m : ast->modules) {
                        fl = nodeIds(*m, faulty->nextId);
                        if (!fl.empty()) {
                            mod = m.get();
                            break;
                        }
                    }
                    if (!mod) {
                        mod = ast->modules[rng() % nmods].get();
                        fl = nodeIds(*mod);
                    }
                    const uint64_t op = rng() % 3;
                    std::optional<core::Edit> e =
                        op == 0   ? local.templateEdit(*ast, *mod, fl)
                        : op == 1 ? local.mutate(*ast, *mod, fl)
                                  : wide.mutate(*ast, *mod, fl);
                    if (!e)
                        continue;
                    chain |= e->target >= faulty->nextId;
                    patch.edits.push_back(std::move(*e));
                }
                if (patch.empty())
                    continue;
                ++patches;
                chained += chain;
                scoped += engine.touchedModules(patch).has_value();

                auto patched = core::applyPatch(*faulty, patch);
                std::string got_msg;
                const core::EvalOutcome got =
                    engine.screen(*patched, patch, &got_msg);
                const bool valid = verilog::isValid(*patched);
                std::string want_msg;
                const bool reject =
                    valid && newErrorCount(baseline, run(*patched, opts),
                                           &want_msg) > 0;
                invalid += !valid;
                rejects += reject;
                const core::EvalOutcome want =
                    !valid   ? core::EvalOutcome::ParseFail
                    : reject ? core::EvalOutcome::LintReject
                             : core::EvalOutcome::Ok;
                if (got != want || (reject && got_msg != want_msg)) {
                    if (++mismatches <= 5)
                        ADD_FAILURE()
                            << d.id << " [" << patch.describe()
                            << "]: scoped " << core::evalOutcomeName(got)
                            << " '" << got_msg << "', whole file "
                            << core::evalOutcomeName(want) << " '"
                            << want_msg << "'";
                }
            }
        }
        EXPECT_EQ(mismatches, 0);
        // The subject must be there: most patches take the scoped
        // path, chains exist, and both rejection kinds occur.
        EXPECT_GT(patches, 1000);
        EXPECT_GT(scoped, patches * 3 / 4);
        EXPECT_GT(chained, 50);
        EXPECT_GT(invalid, 0);
        EXPECT_GT(rejects, 0);
        std::cout << "[          ] " << patches << " patches, " << scoped
                  << " scoped, " << chained << " chained, " << invalid
                  << " invalid, " << rejects << " lint rejects\n";
    }
}

} // namespace
