/**
 * @file
 * Tests for the edit-list patch representation and its application.
 */

#include <map>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/mutation.h"
#include "core/patch.h"
#include "core/snapshot.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

using namespace cirfix;
using namespace cirfix::core;
using namespace cirfix::verilog;

namespace {

const std::string kSrc = R"(
module m (clk, q);
    input clk;
    output [3:0] q;
    reg [3:0] q;
    reg [3:0] shadow;
    always @(posedge clk) begin
        q <= q + 4'd1;
        shadow <= q;
    end
endmodule
)";

struct Ids
{
    int first_assign = -1;
    int second_assign = -1;
    int block = -1;

    explicit Ids(SourceFile &f)
    {
        visitAll(f, [&](Node &n) {
            if (n.kind == NodeKind::Assign) {
                if (first_assign < 0)
                    first_assign = n.id;
                else if (second_assign < 0)
                    second_assign = n.id;
            }
            if (n.kind == NodeKind::SeqBlock && block < 0)
                block = n.id;
        });
    }
};

StmtPtr
parseDonor(const std::string &stmt_src)
{
    auto f = parse("module d; reg [3:0] q; initial " + stmt_src +
                   " endmodule");
    auto *blk = f->modules[0]->items.back()->as<InitialBlock>();
    return blk->body->cloneStmt();
}

TEST(Patch, EmptyPatchIsOriginal)
{
    auto orig = parse(kSrc);
    auto copy = applyPatch(*orig, Patch{});
    EXPECT_EQ(print(*orig), print(*copy));
}

TEST(Patch, ApplyDoesNotMutateOriginal)
{
    auto orig = parse(kSrc);
    std::string before = print(*orig);
    Ids ids(*orig);
    Patch p;
    Edit e;
    e.kind = EditKind::Delete;
    e.target = ids.first_assign;
    p.edits.push_back(std::move(e));
    auto patched = applyPatch(*orig, p);
    EXPECT_EQ(print(*orig), before);
    EXPECT_NE(print(*patched), before);
}

TEST(Patch, DeleteReplacesWithNull)
{
    auto orig = parse(kSrc);
    Ids ids(*orig);
    Patch p;
    Edit e;
    e.kind = EditKind::Delete;
    e.target = ids.first_assign;
    p.edits.push_back(std::move(e));
    int applied = 0;
    auto patched = applyPatch(*orig, p, &applied);
    EXPECT_EQ(applied, 1);
    EXPECT_EQ(findNode(*patched, ids.first_assign), nullptr);
    // Structure is preserved: the block still has two statements.
    auto *blk = findNode(*patched, ids.block)->as<SeqBlock>();
    EXPECT_EQ(blk->stmts.size(), 2u);
    EXPECT_EQ(blk->stmts[0]->kind, NodeKind::NullStmt);
}

TEST(Patch, ReplaceClonesDonorWithFreshIds)
{
    auto orig = parse(kSrc);
    Ids ids(*orig);
    Patch p;
    Edit e;
    e.kind = EditKind::Replace;
    e.target = ids.second_assign;
    e.code = parseDonor("q <= 4'd9;");
    p.edits.push_back(std::move(e));
    auto patched = applyPatch(*orig, p);
    auto *blk = findNode(*patched, ids.block)->as<SeqBlock>();
    auto *repl = blk->stmts[1]->as<Assign>();
    EXPECT_EQ(printExpr(*repl->rhs), "4'd9");
    // Fresh id beyond the original numbering.
    EXPECT_GE(repl->id, orig->nextId);
}

TEST(Patch, InsertAfterInBlock)
{
    auto orig = parse(kSrc);
    Ids ids(*orig);
    Patch p;
    Edit e;
    e.kind = EditKind::InsertAfter;
    e.target = ids.first_assign;
    e.code = parseDonor("q <= 4'd0;");
    p.edits.push_back(std::move(e));
    auto patched = applyPatch(*orig, p);
    auto *blk = findNode(*patched, ids.block)->as<SeqBlock>();
    ASSERT_EQ(blk->stmts.size(), 3u);
    EXPECT_EQ(printExpr(*blk->stmts[1]->as<Assign>()->rhs), "4'd0");
}

TEST(Patch, MissingTargetSkipsEdit)
{
    auto orig = parse(kSrc);
    Patch p;
    Edit e;
    e.kind = EditKind::Delete;
    e.target = 424242;
    p.edits.push_back(std::move(e));
    int applied = -1;
    auto patched = applyPatch(*orig, p, &applied);
    EXPECT_EQ(applied, 0);
    EXPECT_EQ(print(*orig), print(*patched));
}

TEST(Patch, EditsApplyInOrderAndCanChain)
{
    // The second edit targets a node created by the first (the fresh
    // numbering is deterministic).
    auto orig = parse(kSrc);
    Ids ids(*orig);
    Patch p;
    Edit ins;
    ins.kind = EditKind::InsertAfter;
    ins.target = ids.first_assign;
    ins.code = parseDonor("q <= 4'd5;");
    p.edits.push_back(std::move(ins));
    // Find the fresh id the insertion will get by applying once.
    auto probe = applyPatch(*orig, p);
    int inserted_id = -1;
    auto *blk = findNode(*probe, ids.block)->as<SeqBlock>();
    inserted_id = blk->stmts[1]->id;
    // Now chain a template on the inserted statement's literal.
    int num_id = -1;
    visitAll(*blk->stmts[1], [&](Node &n) {
        if (n.kind == NodeKind::Number)
            num_id = n.id;
    });
    ASSERT_GE(num_id, 0);
    Edit tmpl;
    tmpl.kind = EditKind::Template;
    tmpl.tmpl = TemplateKind::DecrementValue;
    tmpl.target = num_id;
    p.edits.push_back(std::move(tmpl));
    auto patched = applyPatch(*orig, p);
    auto *blk2 = findNode(*patched, ids.block)->as<SeqBlock>();
    EXPECT_EQ(blk2->stmts[1]->id, inserted_id);  // deterministic ids
    EXPECT_EQ(printExpr(*blk2->stmts[1]->as<Assign>()->rhs), "4'd4");
}

TEST(Patch, DeterministicReapplication)
{
    auto orig = parse(kSrc);
    Ids ids(*orig);
    Patch p;
    for (int round = 0; round < 2; ++round) {
        Edit e;
        e.kind = EditKind::InsertAfter;
        e.target = ids.second_assign;
        e.code = parseDonor("q <= 4'd3;");
        p.edits.push_back(std::move(e));
    }
    auto a = applyPatch(*orig, p);
    auto b = applyPatch(*orig, p);
    EXPECT_EQ(print(*a), print(*b));
    EXPECT_EQ(a->nextId, b->nextId);
}

TEST(Patch, CopySemanticsDeepCopyDonor)
{
    Edit e;
    e.kind = EditKind::Replace;
    e.target = 1;
    e.code = parseDonor("q <= 4'd1;");
    Edit copy = e;
    EXPECT_NE(copy.code.get(), e.code.get());
    EXPECT_EQ(copy.target, e.target);
    Patch p;
    p.edits.push_back(e);
    Patch q = p;  // patch copy via Edit's copy ctor
    EXPECT_EQ(q.edits.size(), 1u);
    EXPECT_NE(q.edits[0].code.get(), p.edits[0].code.get());
}

TEST(Patch, Describe)
{
    Patch p;
    Edit e1;
    e1.kind = EditKind::Delete;
    e1.target = 7;
    p.edits.push_back(std::move(e1));
    Edit e2;
    e2.kind = EditKind::Template;
    e2.tmpl = TemplateKind::SensitivityPosedge;
    e2.target = 3;
    e2.param = "clk";
    p.edits.push_back(std::move(e2));
    EXPECT_EQ(p.describe(),
              "delete@7; template[sensitivity-posedge]@3(clk)");
    EXPECT_STREQ(editKindName(EditKind::InsertAfter), "insert-after");
}

TEST(Patch, TargetsInsideControlStructures)
{
    auto orig = parse(R"(
module m;
    reg [3:0] q;
    reg clk;
    always @(posedge clk) begin
        if (q == 4'd3)
            q <= 4'd0;
        else
            case (q)
                4'd1 : q <= 4'd2;
                default : q <= q + 4'd1;
            endcase
    end
endmodule
)");
    // Delete the assignment inside the case default arm.
    int target = -1;
    visitAll(*orig, [&](Node &n) {
        if (n.kind == NodeKind::Case) {
            auto *c = n.as<Case>();
            for (auto &item : c->items)
                if (item.labels.empty())
                    target = item.body->id;
        }
    });
    ASSERT_GE(target, 0);
    Patch p;
    Edit e;
    e.kind = EditKind::Delete;
    e.target = target;
    p.edits.push_back(std::move(e));
    int applied = 0;
    auto patched = applyPatch(*orig, p, &applied);
    EXPECT_EQ(applied, 1);
    EXPECT_EQ(findNode(*patched, target), nullptr);
}

// ------------------------------------------------------------------
// Patch::key() — the fitness-cache fingerprint
// ------------------------------------------------------------------

/** Build a randomized edit; donors come from a fixed pool. */
Edit
randomEdit(std::mt19937_64 &rng)
{
    static const char *donors[] = {
        "q <= 4'd1;", "q = q + 4'd2;", "shadow <= q;",
        "begin q <= 4'd0; shadow <= 4'd7; end",
    };
    Edit e;
    switch (rng() % 4) {
      case 0:
        e.kind = EditKind::Delete;
        break;
      case 1:
        e.kind = EditKind::Replace;
        e.code = parseDonor(donors[rng() % 4]);
        break;
      case 2:
        e.kind = EditKind::InsertAfter;
        e.code = parseDonor(donors[rng() % 4]);
        break;
      default:
        e.kind = EditKind::Template;
        e.tmpl = static_cast<TemplateKind>(rng() % 9);
        if (rng() % 2)
            e.param = (rng() % 2) ? "clk" : "rst";
        break;
    }
    e.target = static_cast<int>(rng() % 50);
    return e;
}

Patch
randomPatch(std::mt19937_64 &rng)
{
    Patch p;
    size_t len = 1 + rng() % 4;
    for (size_t i = 0; i < len; ++i)
        p.edits.push_back(randomEdit(rng));
    return p;
}

/**
 * The key format, printed field by field through a stream with the
 * donor re-printed on every call. Keys live in snapshots and island
 * fingerprints, so Edit::key() must match this byte for byte.
 */
std::string
printedKey(const Edit &e)
{
    std::ostringstream os;
    os << static_cast<int>(e.kind) << '\x1f' << e.target << '\x1f';
    if (e.kind == EditKind::Template)
        os << static_cast<int>(e.tmpl) << '\x1f' << e.param;
    else if (e.code)
        os << printStmt(*e.code, 0);
    os << '\x1e';
    return os.str();
}

/** @p e rebuilt field by field, its donor attached afresh. */
Edit
rebuilt(const Edit &e)
{
    Edit r;
    r.kind = e.kind;
    r.target = e.target;
    if (e.code)
        r.code = e.code->cloneStmt();
    r.tmpl = e.tmpl;
    r.param = e.param;
    return r;
}

/** Every edit's key equals the printed format and the key of the
 *  edit rebuilt field by field; the patch key is their concatenation. */
void
expectFieldKeys(const Patch &p)
{
    std::string concat;
    for (const Edit &e : p.edits) {
        EXPECT_EQ(e.key(), printedKey(e)) << e.describe();
        EXPECT_EQ(e.key(), rebuilt(e).key()) << e.describe();
        concat += printedKey(e);
    }
    EXPECT_EQ(p.key(), concat);
}

TEST(PatchKey, EqualEditListsHashEqual)
{
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 200; ++trial) {
        Patch p = randomPatch(rng);
        Patch copy = p;  // deep-copies donor code
        EXPECT_EQ(p.key(), copy.key());
        expectFieldKeys(p);
        expectFieldKeys(copy);
        Patch assigned;
        assigned.edits.resize(1);
        assigned = copy;
        expectFieldKeys(assigned);
        Patch moved = std::move(copy);
        EXPECT_EQ(moved.key(), p.key());
        expectFieldKeys(moved);
    }
}

TEST(PatchKey, OperatorOutputsMatchRebuiltEdits)
{
    auto file = parse(kSrc);
    const Module *mod = file->findModule("m");
    std::unordered_set<int> fl;
    visitAll(*file, [&](Node &n) { fl.insert(n.id); });
    std::mt19937_64 rng(11);
    Mutator mut(rng, MutationConfig{});
    std::vector<Patch> made;
    int donors = 0, templates = 0;
    for (int i = 0; i < 200; ++i) {
        std::optional<Edit> e = (i % 2) ? mut.templateEdit(*file, *mod, fl)
                                        : mut.mutate(*file, *mod, fl);
        if (!e)
            continue;
        donors += e->code ? 1 : 0;
        templates += e->kind == EditKind::Template ? 1 : 0;
        Patch p;
        if (!made.empty() && i % 3 == 0)
            p = made.back();  // multi-edit patches too
        p.edits.push_back(std::move(*e));
        made.push_back(std::move(p));
    }
    EXPECT_GT(donors, 20);
    EXPECT_GT(templates, 20);
    for (const Patch &p : made)
        expectFieldKeys(p);

    for (size_t i = 0; i + 1 < made.size(); ++i) {
        auto [a, b] = crossover(made[i], made[i + 1], rng);
        expectFieldKeys(a);
        expectFieldKeys(b);
    }

    EngineState state;
    state.population.resize(made.size());
    for (size_t i = 0; i < made.size(); ++i) {
        state.population[i].patch = made[i];
        state.population[i].evaluated = true;
    }
    std::vector<Variant> back =
        decodeSnapshot(encodeSnapshot(state)).population;
    ASSERT_EQ(back.size(), made.size());
    for (size_t i = 0; i < back.size(); ++i) {
        expectFieldKeys(back[i].patch);
        EXPECT_EQ(back[i].patch.key(), made[i].key());
    }
}

TEST(PatchKey, KeyFollowsFieldReassignment)
{
    std::mt19937_64 rng(5);
    const char *donors[] = {"q <= 4'd1;", "shadow <= q;",
                            "begin q <= 4'd0; shadow <= 4'd7; end"};
    for (int trial = 0; trial < 50; ++trial) {
        Patch p = randomPatch(rng);
        for (int step = 0; step < 12; ++step) {
            Edit &e = p.edits[rng() % p.edits.size()];
            switch (rng() % 6) {
              case 0:  // re-attach a donor, freeing the previous one
                e.code = parseDonor(donors[rng() % 3]);
                break;
              case 1:
                e.code = (rng() % 2) ? nullptr
                                     : p.edits[rng() % p.edits.size()].code;
                break;
              case 2:
                e.target = static_cast<int>(rng() % 50);
                break;
              case 3:
                e.tmpl = static_cast<TemplateKind>(rng() % 9);
                break;
              case 4:
                e.param = (rng() % 2) ? "clk" : "";
                break;
              default:
                e.kind = static_cast<EditKind>(rng() % 4);
                break;
            }
            expectFieldKeys(p);
        }
    }
    // Replacing a donor repeatedly reuses freed storage; the key
    // still names the donor attached now.
    Edit e;
    e.kind = EditKind::Replace;
    for (int i = 0; i < 10; ++i) {
        e.code = parseDonor(donors[i % 3]);
        EXPECT_EQ(e.key(), printedKey(e));
        EXPECT_NE(e.key().find(printStmt(*parseDonor(donors[i % 3]), 0)),
                  std::string::npos);
    }
}

TEST(PatchKey, KeyIsStableAcrossCalls)
{
    std::mt19937_64 rng(7);
    Patch p = randomPatch(rng);
    EXPECT_EQ(p.key(), p.key());
}

TEST(PatchKey, TargetPerturbationChangesKey)
{
    std::mt19937_64 rng(1);
    for (int trial = 0; trial < 100; ++trial) {
        Patch p = randomPatch(rng);
        Patch q = p;
        size_t i = rng() % q.edits.size();
        q.edits[i].target += 1;
        EXPECT_NE(p.key(), q.key()) << "trial " << trial;
    }
}

TEST(PatchKey, KindPerturbationChangesKey)
{
    std::mt19937_64 rng(2);
    for (int trial = 0; trial < 100; ++trial) {
        Patch p = randomPatch(rng);
        Patch q = p;
        size_t i = rng() % q.edits.size();
        Edit &e = q.edits[i];
        // Delete <-> Replace-with-null-free-code is the cleanest
        // same-payload kind flip; for code-bearing kinds swap the
        // insert/replace pair so the payload stays identical.
        switch (e.kind) {
          case EditKind::Delete:
            e.kind = EditKind::Template;
            e.tmpl = TemplateKind::NegateConditional;
            e.param.clear();
            break;
          case EditKind::Replace:
            e.kind = EditKind::InsertAfter;
            break;
          case EditKind::InsertAfter:
            e.kind = EditKind::Replace;
            break;
          case EditKind::Template:
            e.kind = EditKind::Delete;
            break;
        }
        EXPECT_NE(p.key(), q.key()) << "trial " << trial;
    }
}

TEST(PatchKey, PayloadPerturbationChangesKey)
{
    // Donor-code payload.
    Patch a, b;
    Edit ea;
    ea.kind = EditKind::Replace;
    ea.target = 3;
    ea.code = parseDonor("q <= 4'd1;");
    a.edits.push_back(std::move(ea));
    Edit eb;
    eb.kind = EditKind::Replace;
    eb.target = 3;
    eb.code = parseDonor("q <= 4'd2;");
    b.edits.push_back(std::move(eb));
    EXPECT_NE(a.key(), b.key());

    // Template-kind payload.
    Patch c, d;
    Edit ec;
    ec.kind = EditKind::Template;
    ec.target = 3;
    ec.tmpl = TemplateKind::IncrementValue;
    c.edits.push_back(std::move(ec));
    Edit ed;
    ed.kind = EditKind::Template;
    ed.target = 3;
    ed.tmpl = TemplateKind::DecrementValue;
    d.edits.push_back(std::move(ed));
    EXPECT_NE(c.key(), d.key());

    // Template-parameter payload.
    Patch f, g;
    Edit ef;
    ef.kind = EditKind::Template;
    ef.target = 3;
    ef.tmpl = TemplateKind::SensitivityPosedge;
    ef.param = "clk";
    f.edits.push_back(std::move(ef));
    Edit eg;
    eg.kind = EditKind::Template;
    eg.target = 3;
    eg.tmpl = TemplateKind::SensitivityPosedge;
    eg.param = "rst";
    g.edits.push_back(std::move(eg));
    EXPECT_NE(f.key(), g.key());
}

TEST(PatchKey, EditListOrderAndLengthMatter)
{
    Edit del;
    del.kind = EditKind::Delete;
    del.target = 4;
    Edit tmpl;
    tmpl.kind = EditKind::Template;
    tmpl.target = 9;
    tmpl.tmpl = TemplateKind::NegateConditional;

    Patch ab, ba, a;
    ab.edits = {del, tmpl};
    ba.edits = {tmpl, del};
    a.edits = {del};
    EXPECT_NE(ab.key(), ba.key());
    EXPECT_NE(ab.key(), a.key());
    EXPECT_NE(Patch{}.key(), a.key());
    EXPECT_EQ(Patch{}.key(), std::string());
}

TEST(PatchKey, NoCollisionsAcrossRandomizedPatches)
{
    // Distinct random patches should (essentially always) have
    // distinct keys; the key is an exact canonical encoding, so the
    // only allowed equal-key pairs are structurally equal edit lists.
    std::mt19937_64 rng(1234);
    std::map<std::string, std::string> seen;  // key -> describe()
    int collisions = 0;
    for (int trial = 0; trial < 500; ++trial) {
        Patch p = randomPatch(rng);
        auto [it, inserted] = seen.emplace(p.key(), p.describe());
        if (!inserted && it->second != p.describe())
            ++collisions;
    }
    EXPECT_EQ(collisions, 0);
}

} // namespace
