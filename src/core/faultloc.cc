#include "core/faultloc.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>

namespace cirfix::core {

using namespace verilog;
using sim::LogicVec;

namespace {

/** Last path component: "dut.counter_out" -> "counter_out". */
std::string
leafName(const std::string &path)
{
    size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
}

/** The identifier a reference node names, or null for other nodes. */
const std::string *
refName(const Node &n)
{
    switch (n.kind) {
      case NodeKind::Ident: return &n.as<Ident>()->name;
      case NodeKind::Index: return &n.as<Index>()->name;
      case NodeKind::RangeSel: return &n.as<RangeSel>()->name;
      default: return nullptr;
    }
}

/** The controlling expression of a conditional-like node, if any. */
const Expr *
controlExpr(const Node &n)
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

/** The assignment target of an assignment-like node, if any. */
const Expr *
assignTarget(const Node &n)
{
    switch (n.kind) {
      case NodeKind::Assign: return n.as<Assign>()->lhs.get();
      case NodeKind::ContAssign: return n.as<ContAssign>()->lhs.get();
      default: return nullptr;
    }
}

/**
 * The DUT flattened once per localization: identifier names interned
 * to ints, nodes in pre-order, and one site per assignment or
 * conditional. A site is implicated when any of its trigger names
 * (assignment targets, or the names its condition reads) is in the
 * mismatch set; it then adds its subtree [begin, end) to the FL set and
 * pulls in the names beneath it and those of its enclosing conditions.
 */
struct FlatDut
{
    struct Site
    {
        int begin = 0, end = 0;                //!< pre-order subtree
        int triggerBegin = 0, triggerEnd = 0;  //!< range of triggers
        int enclosingCond = -1;  //!< nearest enclosing conditional site
    };

    std::unordered_map<std::string_view, int> ids;
    std::vector<const std::string *> names;  //!< id -> name
    std::vector<int> nodeIds;  //!< pre-order position -> AST node id
    std::vector<int> nameAt;   //!< position -> non-empty name id or -1
    std::vector<Site> sites;
    std::vector<int> triggers;

    explicit FlatDut(const Module &dut)
    {
        flatten(const_cast<Module &>(dut), -1);
    }

    int
    intern(const std::string &name)
    {
        auto [it, fresh] =
            ids.try_emplace(name, static_cast<int>(names.size()));
        if (fresh)
            names.push_back(&name);
        return it->second;
    }

    /** Trigger the base identifier names an lvalue writes. */
    void
    addTargets(const Expr &lhs)
    {
        if (lhs.kind == NodeKind::Concat) {
            for (auto &p : lhs.as<Concat>()->parts)
                addTargets(*p);
        } else if (const std::string *name = refName(lhs)) {
            triggers.push_back(intern(*name));
        }
    }

    void
    flatten(Node &node, int enclosing_cond)
    {
        const int pos = static_cast<int>(nodeIds.size());
        nodeIds.push_back(node.id);
        const std::string *ref = refName(node);
        nameAt.push_back(ref && !ref->empty() ? intern(*ref) : -1);

        const Expr *target = assignTarget(node);
        const Expr *ctrl = controlExpr(node);
        int site = -1;
        if (target || ctrl) {
            site = static_cast<int>(sites.size());
            Site s;
            s.begin = pos;
            s.enclosingCond = enclosing_cond;
            s.triggerBegin = static_cast<int>(triggers.size());
            if (target)
                addTargets(*target);
            if (ctrl)
                visitAll(const_cast<Expr &>(*ctrl), [&](Node &sub) {
                    if (const std::string *n = refName(sub))
                        triggers.push_back(intern(*n));
                });
            s.triggerEnd = static_cast<int>(triggers.size());
            sites.push_back(s);
        }
        const int inner = ctrl ? site : enclosing_cond;
        node.forEachChild([&](Node *c) {
            if (c)
                flatten(*c, inner);
        });
        if (site >= 0)
            sites[site].end = static_cast<int>(nodeIds.size());
    }
};

} // namespace

std::unordered_set<std::string>
outputMismatch(const Trace &sim_result, const Trace &expected)
{
    // Each column's leaf name is computed once. Columns with the same
    // leaf share one flag, and a column is no longer compared once its
    // leaf has mismatched. Leaves enter the set in the order the
    // row-major scan finds them.
    const std::vector<std::string> &vars = expected.vars();
    std::vector<std::string> leaves;  //!< distinct leaf names
    std::vector<size_t> leaf_of(vars.size());
    std::vector<int> sim_col(vars.size(), -1);
    for (size_t i = 0; i < vars.size(); ++i) {
        sim_col[i] = sim_result.varIndex(vars[i]);
        std::string leaf = leafName(vars[i]);
        auto it = std::find(leaves.begin(), leaves.end(), leaf);
        leaf_of[i] = static_cast<size_t>(it - leaves.begin());
        if (it == leaves.end())
            leaves.push_back(std::move(leaf));
    }
    std::vector<char> mismatched(leaves.size(), 0);

    std::unordered_set<std::string> mismatch;
    for (const Trace::Row &orow : expected.rows()) {
        const Trace::Row *srow = sim_result.rowAt(orow.time);
        for (size_t v = 0; v < orow.values.size(); ++v) {
            if (mismatched[leaf_of[v]])
                continue;
            const LogicVec &ov = orow.values[v];
            const LogicVec *sv = nullptr;
            if (srow && sim_col[v] >= 0 &&
                static_cast<size_t>(sim_col[v]) < srow->values.size())
                sv = &srow->values[static_cast<size_t>(sim_col[v])];
            const bool same =
                !sv ? LogicVec::xs(ov.width()).identical(ov)
                : sv->width() == ov.width()
                    ? sv->identical(ov)
                    : sv->resized(ov.width()).identical(ov);
            if (!same) {
                mismatched[leaf_of[v]] = 1;
                mismatch.insert(leaves[leaf_of[v]]);
            }
        }
    }
    return mismatch;
}

FaultLocResult
faultLocalize(const Module &dut,
              std::unordered_set<std::string> mismatch_seed)
{
    FaultLocResult res;
    if (mismatch_seed.empty())
        return res;
    const FlatDut flat(dut);

    // Pending names join the mismatch set at the next iteration. Sites
    // test only Mismatch, so each iteration applies the rules to the
    // set as it stood when the iteration began; that fixes the
    // iteration count `cirfix localize` reports.
    enum : uint8_t { Clean, Mismatch, Pending };
    std::vector<uint8_t> state(flat.names.size(), Clean);
    std::vector<int> pending;
    auto add = [&](int name) {
        if (state[name] == Clean) {
            state[name] = Pending;
            pending.push_back(name);
        }
    };
    for (const std::string &n : mismatch_seed)
        if (auto it = flat.ids.find(n); it != flat.ids.end())
            add(it->second);
    // Seed names the DUT never mentions stay in the result as given.
    res.mismatchNames = std::move(mismatch_seed);

    // An implicated site stays implicated (the mismatch set only
    // grows) and has already contributed everything it can, so later
    // iterations skip it.
    std::vector<uint8_t> implicated(flat.sites.size(), 0);
    std::vector<uint8_t> in_fl(flat.nodeIds.size(), 0);

    // Fixed point: iterate while the mismatch set grows.
    do {
        ++res.iterations;
        for (int n : pending)
            state[n] = Mismatch;
        pending.clear();

        for (size_t s = 0; s < flat.sites.size(); ++s) {
            if (implicated[s])
                continue;
            const FlatDut::Site &site = flat.sites[s];
            bool hit = false;
            for (int t = site.triggerBegin; t < site.triggerEnd && !hit;
                 ++t)
                hit = state[flat.triggers[t]] == Mismatch;
            if (!hit)
                continue;
            implicated[s] = 1;
            // (Add-Child): the node and its whole subtree join FL;
            // identifiers beneath it join the mismatch set.
            for (int k = site.begin; k < site.end; ++k) {
                in_fl[k] = 1;
                if (int n = flat.nameAt[k]; n >= 0)
                    add(n);
            }
            // Control dependencies: names read by every enclosing
            // condition flow into the mismatch set too (Section 3.1:
            // the analysis "transitively captures data and control
            // dependencies").
            for (int c = site.enclosingCond; c >= 0;
                 c = flat.sites[c].enclosingCond) {
                const FlatDut::Site &cond = flat.sites[c];
                for (int t = cond.triggerBegin; t < cond.triggerEnd; ++t)
                    add(flat.triggers[t]);
            }
        }

        if (res.iterations > 64)
            break;  // defensive bound; |names| is finite so unreachable
    } while (!pending.empty());

    for (size_t k = 0; k < in_fl.size(); ++k)
        if (in_fl[k])
            res.nodeIds.insert(flat.nodeIds[k]);
    for (size_t n = 0; n < state.size(); ++n)
        if (state[n] == Mismatch)
            res.mismatchNames.insert(*flat.names[n]);
    return res;
}

FaultLocResult
faultLocalize(const Module &dut, const Trace &sim_result,
              const Trace &expected)
{
    return faultLocalize(dut, outputMismatch(sim_result, expected));
}

} // namespace cirfix::core
