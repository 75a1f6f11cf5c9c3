/**
 * @file
 * Tests for the dataflow-based fault localization (Algorithm 2),
 * including the paper's motivating example walk-through.
 */

#include <gtest/gtest.h>

#include <functional>

#include "benchmarks/registry.h"
#include "core/faultloc.h"
#include "core/scenario.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::core;
using namespace cirfix::verilog;
using cirfix::sim::LogicVec;

namespace {

/** Parse a module and return it (keeping the file alive). */
struct Parsed
{
    std::unique_ptr<SourceFile> file;
    Module *mod;

    explicit Parsed(const std::string &src)
        : file(parse(src)), mod(file->modules[0].get())
    {}
};

Trace
traceOf(const std::vector<std::string> &vars,
        std::vector<std::pair<uint64_t, std::vector<std::string>>> rows)
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

// ---------------------------------------------------------------------
// Reference implementation: the direct recursive form of Algorithm 2,
// which re-walks the whole DUT on every fixed-point iteration. The
// production kernel flattens the DUT once and must agree with it
// exactly (node ids, mismatch names and iteration count).
// ---------------------------------------------------------------------

void
refLhsNames(const Expr &lhs, std::vector<std::string> &out)
{
    switch (lhs.kind) {
      case NodeKind::Ident:
        out.push_back(lhs.as<Ident>()->name);
        break;
      case NodeKind::Index:
        out.push_back(lhs.as<Index>()->name);
        break;
      case NodeKind::RangeSel:
        out.push_back(lhs.as<RangeSel>()->name);
        break;
      case NodeKind::Concat:
        for (auto &p : lhs.as<Concat>()->parts)
            refLhsNames(*p, out);
        break;
      default:
        break;
    }
}

bool
refMentionsAny(const Expr &e, const std::unordered_set<std::string> &names)
{
    for (auto &n : collectIdents(e))
        if (names.count(n))
            return true;
    return false;
}

const Expr *
refControlExpr(const Node &n)
{
    switch (n.kind) {
      case NodeKind::If: return n.as<If>()->cond.get();
      case NodeKind::While: return n.as<While>()->cond.get();
      case NodeKind::For: return n.as<For>()->cond.get();
      case NodeKind::Case: return n.as<Case>()->subject.get();
      case NodeKind::Ternary: return n.as<Ternary>()->cond.get();
      default: return nullptr;
    }
}

const Expr *
refAssignTarget(const Node &n)
{
    switch (n.kind) {
      case NodeKind::Assign: return n.as<Assign>()->lhs.get();
      case NodeKind::ContAssign: return n.as<ContAssign>()->lhs.get();
      default: return nullptr;
    }
}

FaultLocResult
referenceFaultLocalize(const Module &dut,
                       std::unordered_set<std::string> mismatch_seed)
{
    FaultLocResult res;
    std::unordered_set<std::string> &mismatch = res.mismatchNames;
    std::unordered_set<std::string> next = std::move(mismatch_seed);

    // Fixed point: iterate while the mismatch set grows.
    while (!next.empty()) {
        ++res.iterations;
        bool grew = false;
        for (const std::string &n : next)
            grew |= mismatch.insert(n).second;
        next.clear();
        if (!grew && res.iterations > 1)
            break;

        // Walk with the stack of enclosing controlling expressions so
        // implicated assignments also pull in their *control
        // dependencies*: the conditions an assignment executes under
        // (Section 3.1: the analysis "transitively captures data and
        // control dependencies").
        std::vector<const Expr *> ctrl_stack;
        std::function<void(Node &)> walk = [&](Node &node) {
            bool implicated = false;
            if (const Expr *target = refAssignTarget(node)) {
                std::vector<std::string> names;
                refLhsNames(*target, names);
                for (auto &n : names)
                    implicated |= (mismatch.count(n) > 0);
            }
            if (!implicated) {
                if (const Expr *ctrl = refControlExpr(node))
                    implicated = refMentionsAny(*ctrl, mismatch);
            }
            if (implicated) {
                // (Add-Child): the node and its whole subtree join FL;
                // identifiers beneath it join the mismatch set.
                visitAll(node, [&](Node &sub) {
                    res.nodeIds.insert(sub.id);
                    std::string name;
                    if (sub.kind == NodeKind::Ident)
                        name = sub.as<Ident>()->name;
                    else if (sub.kind == NodeKind::Index)
                        name = sub.as<Index>()->name;
                    else if (sub.kind == NodeKind::RangeSel)
                        name = sub.as<RangeSel>()->name;
                    if (!name.empty() && !mismatch.count(name))
                        next.insert(name);
                });
                // Control dependencies: names read by every enclosing
                // condition flow into the mismatch set too.
                for (const Expr *cond : ctrl_stack)
                    for (auto &n : collectIdents(*cond))
                        if (!mismatch.count(n))
                            next.insert(n);
            }
            bool pushed = false;
            if (const Expr *ctrl = refControlExpr(node)) {
                ctrl_stack.push_back(ctrl);
                pushed = true;
            }
            node.forEachChild([&](Node *c) {
                if (c)
                    walk(*c);
            });
            if (pushed)
                ctrl_stack.pop_back();
        };
        walk(const_cast<Module &>(dut));

        if (res.iterations > 64)
            break;  // defensive bound; |names| is finite so unreachable
    }
    return res;
}

/** Last path component: "dut.counter_out" -> "counter_out". */
std::string
leafOf(const std::string &path)
{
    size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
}

TEST(FaultLoc, OutputMismatchDetectsDifferences)
{
    Trace o = traceOf({"dut.a", "dut.b"},
                      {{5, {"00", "1"}}, {15, {"01", "1"}}});
    Trace s = traceOf({"dut.a", "dut.b"},
                      {{5, {"00", "1"}}, {15, {"11", "1"}}});
    auto mm = outputMismatch(s, o);
    EXPECT_EQ(mm.size(), 1u);
    EXPECT_TRUE(mm.count("a"));  // hierarchical prefix stripped
}

TEST(FaultLoc, XCountsAsMismatch)
{
    Trace o = traceOf({"q"}, {{5, {"0"}}});
    Trace s = traceOf({"q"}, {{5, {"x"}}});
    EXPECT_EQ(outputMismatch(s, o).count("q"), 1u);
}

TEST(FaultLoc, MissingSimRowIsMismatch)
{
    Trace o = traceOf({"q"}, {{5, {"0"}}, {15, {"0"}}});
    Trace s = traceOf({"q"}, {{5, {"0"}}});
    EXPECT_EQ(outputMismatch(s, o).count("q"), 1u);
}

TEST(FaultLoc, EmptyMismatchYieldsEmptyFl)
{
    Parsed p("module m; reg a; initial a = 1'b0; endmodule");
    auto fl = faultLocalize(*p.mod, {});
    EXPECT_TRUE(fl.nodeIds.empty());
}

TEST(FaultLoc, ImplDataImplicatesAssignments)
{
    Parsed p(R"(
module m;
    reg a, b;
    initial begin
        a = 1'b0;
        b = 1'b1;
    end
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"a"});
    // The assignment to a (and its subtree) is in FL; b's is not.
    bool a_in = false, b_in = false;
    visitAll(*p.mod, [&](Node &n) {
        if (n.kind == NodeKind::Assign) {
            auto *as = n.as<Assign>();
            if (as->lhs->kind == NodeKind::Ident) {
                const std::string &nm = as->lhs->as<Ident>()->name;
                if (nm == "a")
                    a_in = fl.contains(n.id);
                if (nm == "b")
                    b_in = fl.contains(n.id);
            }
        }
    });
    EXPECT_TRUE(a_in);
    EXPECT_FALSE(b_in);
}

TEST(FaultLoc, MotivatingExampleCounter)
{
    // Paper Section 2/3.1: overflow_out mismatch implicates the
    // overflow assignment (Impl-Data), then the wrapping if via its
    // condition (Impl-Ctrl), which brings counter_out into the
    // mismatch set (Add-Child), implicating the counter assignments.
    Parsed p(R"(
module counter (clk, reset, enable, counter_out, overflow_out);
    input clk, reset, enable;
    output [3:0] counter_out;
    output overflow_out;
    reg [3:0] counter_out;
    reg overflow_out;
    always @(posedge clk)
    begin : COUNTER
        if (reset == 1'b1) begin
            counter_out <= #1 4'b0000;
        end
        else if (enable == 1'b1) begin
            counter_out <= #1 counter_out + 1;
        end
        if (counter_out == 4'b1111) begin
            overflow_out <= #1 1'b1;
        end
    end
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"overflow_out"});
    EXPECT_TRUE(fl.mismatchNames.count("overflow_out"));
    // counter_out joins the mismatch set transitively.
    EXPECT_TRUE(fl.mismatchNames.count("counter_out"));
    // Both the overflow if and the counter assignments implicated.
    int implicated_assigns = 0;
    visitAll(*p.mod, [&](Node &n) {
        if (n.kind == NodeKind::Assign && fl.contains(n.id))
            ++implicated_assigns;
    });
    EXPECT_EQ(implicated_assigns, 3);
    EXPECT_GE(fl.iterations, 2);
}

TEST(FaultLoc, ControlDependenciesOfImplicatedAssignments)
{
    // An assignment inside a case arm pulls the case subject into the
    // mismatch set (ascending control dependency).
    Parsed p(R"(
module m;
    reg [1:0] state;
    reg out, other;
    always @(state) begin
        case (state)
            2'b00 : out = 1'b0;
            2'b01 : out = 1'b1;
        endcase
    end
    always @(state) begin
        if (state == 2'b10) other = 1'b1;
    end
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"out"});
    EXPECT_TRUE(fl.mismatchNames.count("state"));
    // Via state, the if conditional in the second block implicates.
    bool if_in = false;
    visitAll(*p.mod, [&](Node &n) {
        if (n.kind == NodeKind::If)
            if_in |= fl.contains(n.id);
    });
    EXPECT_TRUE(if_in);
}

TEST(FaultLoc, UniformSetNotRanked)
{
    // The result is a set of ids: no ordering / scores involved.
    Parsed p(R"(
module m;
    reg a, b;
    always @(b) a = b;
    always @(a) b = a;
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"a"});
    // Fixed point pulls in b and then b's assignment too.
    EXPECT_TRUE(fl.mismatchNames.count("b"));
    int assigns = 0;
    visitAll(*p.mod, [&](Node &n) {
        if (n.kind == NodeKind::Assign && fl.contains(n.id))
            ++assigns;
    });
    EXPECT_EQ(assigns, 2);
}

TEST(FaultLoc, ContAssignParticipates)
{
    Parsed p(R"(
module m;
    wire y;
    reg a, b;
    assign y = a & b;
    initial begin
        a = 1'b0;
        b = 1'b1;
    end
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"y"});
    EXPECT_TRUE(fl.mismatchNames.count("a"));
    EXPECT_TRUE(fl.mismatchNames.count("b"));
    int implicated_assigns = 0;
    visitAll(*p.mod, [&](Node &n) {
        if ((n.kind == NodeKind::Assign ||
             n.kind == NodeKind::ContAssign) &&
            fl.contains(n.id))
            ++implicated_assigns;
    });
    EXPECT_EQ(implicated_assigns, 3);
}

TEST(FaultLoc, ConcatLhsImplicates)
{
    Parsed p(R"(
module m;
    reg a, b, c;
    initial {a, b} = {c, c};
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"b"});
    EXPECT_TRUE(fl.mismatchNames.count("c"));
    EXPECT_FALSE(fl.nodeIds.empty());
}

TEST(FaultLoc, TerminatesOnSelfReference)
{
    Parsed p(R"(
module m;
    reg [3:0] q;
    always @(q) q = q + 1;
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"q"});
    EXPECT_LE(fl.iterations, 64);
    EXPECT_FALSE(fl.nodeIds.empty());
}

TEST(FaultLoc, UnrelatedLogicExcluded)
{
    Parsed p(R"(
module m;
    reg a, b, u1, u2;
    always @(b) a = b;
    always @(u1) u2 = u1;
endmodule
)");
    auto fl = faultLocalize(*p.mod, {"a"});
    EXPECT_FALSE(fl.mismatchNames.count("u1"));
    EXPECT_FALSE(fl.mismatchNames.count("u2"));
    // u2's assignment must not be implicated.
    visitAll(*p.mod, [&](Node &n) {
        if (n.kind == NodeKind::Assign) {
            auto *as = n.as<Assign>();
            if (as->lhs->kind == NodeKind::Ident &&
                as->lhs->as<Ident>()->name == "u2") {
                EXPECT_FALSE(fl.contains(n.id));
            }
        }
    });
}

TEST(FaultLoc, FromTracesEndToEnd)
{
    Parsed p(R"(
module m;
    reg good, bad;
    initial begin
        good = 1'b1;
        bad = 1'b0;
    end
endmodule
)");
    Trace o = traceOf({"dut.good", "dut.bad"}, {{5, {"1", "1"}}});
    Trace s = traceOf({"dut.good", "dut.bad"}, {{5, {"1", "0"}}});
    auto fl = faultLocalize(*p.mod, s, o);
    EXPECT_TRUE(fl.mismatchNames.count("bad"));
    EXPECT_FALSE(fl.mismatchNames.count("good"));
}

TEST(FaultLoc, KernelMatchesReferenceOnEveryDefect)
{
    // Seeds per DUT: the real faulty-vs-oracle mismatch, each oracle
    // output alone, every identifier of the DUT alone, and a name the
    // DUT never mentions.
    int compared = 0, nontrivial = 0;
    for (const DefectSpec &d : bench::allDefects()) {
        const ProjectSpec &p = bench::getProject(d.project);
        Scenario sc = buildScenario(p, d);
        const std::string &dut_name =
            d.repairModule.empty() ? p.dutModule : d.repairModule;
        const Module *dut = sc.faulty->findModule(dut_name);
        ASSERT_NE(dut, nullptr) << d.id;

        std::vector<std::unordered_set<std::string>> seeds;
        Variant faulty = sc.makeEngine(EngineConfig{}).evaluate(Patch{});
        seeds.push_back(outputMismatch(faulty.trace, sc.oracle));
        for (const std::string &var : sc.oracle.vars())
            seeds.push_back({leafOf(var)});
        for (const std::string &name :
             collectIdents(const_cast<Module &>(*dut)))
            seeds.push_back({name});
        seeds.push_back({"no_such_name_anywhere"});

        for (const auto &seed : seeds) {
            FaultLocResult want = referenceFaultLocalize(*dut, seed);
            FaultLocResult got = faultLocalize(*dut, seed);
            std::string label = d.id + " seed {";
            for (const auto &n : seed)
                label += " " + n;
            label += " }";
            ASSERT_EQ(got.iterations, want.iterations) << label;
            ASSERT_EQ(got.mismatchNames, want.mismatchNames) << label;
            ASSERT_EQ(got.nodeIds, want.nodeIds) << label;
            ++compared;
            nontrivial += want.iterations > 2;
        }
    }
    // The suite must exercise multi-step fixed points, not just seeds
    // that stop after one pass.
    EXPECT_GT(compared, 1000);
    EXPECT_GT(nontrivial, 100);
}

} // namespace
