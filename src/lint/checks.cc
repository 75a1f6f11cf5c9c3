#include "lint/checks.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace cirfix::lint {

using namespace verilog;

bool
CheckContext::wants(const char *check) const
{
    const std::vector<CheckInfo> &reg = checkRegistry();
    for (size_t i = 0; i < reg.size(); ++i)
        if (std::strcmp(reg[i].id, check) == 0)
            return wanted[i];
    return false;
}

void
CheckContext::emit(const char *check, std::string signal,
                   const Node *where, std::string message)
{
    Diagnostic d;
    d.check = check;
    d.module = mod.name;
    d.signal = std::move(signal);
    if (where)
        d.span = where->span;
    d.message = std::move(message);
    out.push_back(std::move(d));
}

// --------------------------------------------------------------------
// Driver conflicts
// --------------------------------------------------------------------

void
checkDrivers(CheckContext &cx)
{
    // duplicate-decl: the same name declared twice at the same kind.
    // (A wire redeclared as reg is the legal port-refinement idiom and
    // is not flagged.)
    if (cx.wants("duplicate-decl")) {
        std::map<std::string, std::vector<const VarDecl *>> byName;
        for (auto &it : cx.mod.items)
            if (it->kind == NodeKind::VarDecl)
                byName[it->as<VarDecl>()->name].push_back(
                    it->as<VarDecl>());
        for (auto &[name, decls] : byName) {
            for (size_t i = 1; i < decls.size(); ++i) {
                if (decls[i]->varKind == decls[i - 1]->varKind) {
                    cx.emit("duplicate-decl", name, decls[i],
                            "'" + name + "' is declared more than once");
                    break;
                }
            }
        }
    }

    const bool nets = cx.wants("multi-driven-net");
    const bool multiReg = cx.wants("multi-driven-reg");
    const bool mixed = cx.wants("mixed-assign");
    if (!nets && !multiReg && !mixed)
        return;
    for (auto &[name, sites] : cx.info.drivers) {
        auto decl = cx.info.decls.find(name);
        if (decl == cx.info.decls.end())
            continue;

        if (!cx.info.isReg(name)) {
            if (!nets)
                continue;
            // multi-driven-net: a wire with overlapping structural
            // drivers resolves to X in real hardware; there is no
            // priority between continuous assigns.
            std::vector<const DriverSite *> structural;
            for (auto &s : sites)
                if (s.kind == DriverSite::Kind::Continuous ||
                    s.kind == DriverSite::Kind::InstanceOutput)
                    structural.push_back(&s);
            bool conflict = false;
            for (size_t i = 0; i < structural.size() && !conflict; ++i)
                for (size_t j = i + 1; j < structural.size(); ++j)
                    if (structural[i]->overlaps(*structural[j])) {
                        conflict = true;
                        break;
                    }
            if (conflict)
                cx.emit("multi-driven-net", name,
                        structural.back()->node,
                        "wire '" + name + "' has " +
                            std::to_string(structural.size()) +
                            " conflicting drivers");
            continue;
        }
        if (!multiReg && !mixed)
            continue;

        // Register checks consider only always-block drives: initial
        // blocks legitimately preset registers the design also owns.
        std::set<const Item *> always_containers;
        bool blocking = false, nonblocking = false;
        const DriverSite *last = nullptr;
        for (auto &s : sites) {
            if (s.kind == DriverSite::Kind::Blocking ||
                s.kind == DriverSite::Kind::NonBlocking) {
                always_containers.insert(s.container);
                blocking |= s.kind == DriverSite::Kind::Blocking;
                nonblocking |= s.kind == DriverSite::Kind::NonBlocking;
                last = &s;
            }
        }
        if (multiReg && always_containers.size() > 1)
            cx.emit("multi-driven-reg", name, last->node,
                    "reg '" + name + "' is assigned from " +
                        std::to_string(always_containers.size()) +
                        " always blocks");
        if (mixed && blocking && nonblocking)
            cx.emit("mixed-assign", name, last->node,
                    "reg '" + name +
                        "' is written by both blocking (=) and "
                        "non-blocking (<=) assignments");
    }
}

// --------------------------------------------------------------------
// Combinational loops
// --------------------------------------------------------------------

void
checkCombLoops(CheckContext &cx)
{
    if (!cx.wants("comb-loop"))
        return;
    CombGraph g = buildCombGraph(cx.mod);
    for (auto &cycle : g.cycles()) {
        std::vector<std::string> names;
        const Node *where = nullptr;
        for (int v : cycle) {
            names.push_back(g.signals[v]);
            if (!where)
                where = g.site[v];
        }
        std::sort(names.begin(), names.end());
        std::string joined;
        for (auto &n : names)
            joined += (joined.empty() ? "" : ",") + n;
        cx.emit("comb-loop", joined, where,
                "zero-delay combinational loop through {" + joined +
                    "}");
    }
}

// --------------------------------------------------------------------
// Process-shape checks
// --------------------------------------------------------------------

namespace {

/**
 * Identifier reads of a statement subtree: rhs and condition reads,
 * plus index expressions of lvalues (the written bits themselves do
 * not count as reads). Sets @p has_timing when the subtree suspends.
 */
void
stmtReads(const Stmt &s, std::vector<std::string> &out, bool &has_timing)
{
    switch (s.kind) {
      case NodeKind::Assign: {
        auto *a = s.as<Assign>();
        collectReads(*a->rhs, out);
        if (a->lhs->kind == NodeKind::Index)
            collectReads(*a->lhs->as<Index>()->index, out);
        if (a->delay)
            collectReads(*a->delay, out);
        break;
      }
      case NodeKind::SeqBlock:
        for (auto &c : s.as<SeqBlock>()->stmts)
            if (c)
                stmtReads(*c, out, has_timing);
        break;
      case NodeKind::If: {
        auto *i = s.as<If>();
        collectReads(*i->cond, out);
        if (i->thenStmt)
            stmtReads(*i->thenStmt, out, has_timing);
        if (i->elseStmt)
            stmtReads(*i->elseStmt, out, has_timing);
        break;
      }
      case NodeKind::Case: {
        auto *c = s.as<Case>();
        collectReads(*c->subject, out);
        for (auto &item : c->items) {
            for (auto &l : item.labels)
                collectReads(*l, out);
            if (item.body)
                stmtReads(*item.body, out, has_timing);
        }
        break;
      }
      case NodeKind::For: {
        auto *f = s.as<For>();
        if (f->init)
            stmtReads(*f->init, out, has_timing);
        collectReads(*f->cond, out);
        if (f->step)
            stmtReads(*f->step, out, has_timing);
        if (f->body)
            stmtReads(*f->body, out, has_timing);
        break;
      }
      case NodeKind::While: {
        auto *w = s.as<While>();
        collectReads(*w->cond, out);
        if (w->body)
            stmtReads(*w->body, out, has_timing);
        break;
      }
      case NodeKind::Repeat: {
        auto *r = s.as<Repeat>();
        collectReads(*r->count, out);
        if (r->body)
            stmtReads(*r->body, out, has_timing);
        break;
      }
      case NodeKind::Forever:
        if (s.as<Forever>()->body)
            stmtReads(*s.as<Forever>()->body, out, has_timing);
        break;
      case NodeKind::SysTask:
        for (auto &a : s.as<SysTask>()->args)
            if (a)
                collectReads(*a, out);
        break;
      case NodeKind::DelayStmt:
      case NodeKind::EventCtrl:
      case NodeKind::Wait:
        has_timing = true;
        break;
      default:
        break;
    }
}

/** Signals assigned on *every* path through @p s (path intersection). */
std::set<std::string>
fullyAssigned(const Stmt &s, const CheckContext &cx)
{
    switch (s.kind) {
      case NodeKind::Assign: {
        std::vector<std::string> t;
        collectTargets(*s.as<Assign>()->lhs, t);
        return {t.begin(), t.end()};
      }
      case NodeKind::SeqBlock: {
        std::set<std::string> acc;
        for (auto &c : s.as<SeqBlock>()->stmts)
            if (c) {
                auto sub = fullyAssigned(*c, cx);
                acc.insert(sub.begin(), sub.end());
            }
        return acc;
      }
      case NodeKind::If: {
        auto *i = s.as<If>();
        if (!i->elseStmt || !i->thenStmt)
            return {};
        auto a = fullyAssigned(*i->thenStmt, cx);
        auto b = fullyAssigned(*i->elseStmt, cx);
        std::set<std::string> both;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::inserter(both, both.begin()));
        return both;
      }
      case NodeKind::Case: {
        auto *c = s.as<Case>();
        bool has_default = false;
        for (auto &item : c->items)
            has_default |= item.labels.empty();
        if (!has_default) {
            // A case without a default still covers every path when
            // its constant labels enumerate all 2^W subject values
            // (the decoder benchmark's 8-label 3-bit case).
            std::optional<int> w;
            if (c->subject->kind == NodeKind::Ident)
                w = cx.info.width(c->subject->as<Ident>()->name);
            if (!w || *w > 16)
                return {};
            std::set<long> labels;
            for (auto &item : c->items)
                for (auto &l : item.labels) {
                    auto v = constEval(*l, cx.info.params);
                    if (v)
                        labels.insert(*v);
                }
            if (labels.size() != (1ull << *w))
                return {};
        }
        std::set<std::string> acc;
        bool first = true;
        for (auto &item : c->items) {
            std::set<std::string> sub;
            if (item.body)
                sub = fullyAssigned(*item.body, cx);
            if (first) {
                acc = std::move(sub);
                first = false;
            } else {
                std::set<std::string> both;
                std::set_intersection(acc.begin(), acc.end(),
                                      sub.begin(), sub.end(),
                                      std::inserter(both, both.begin()));
                acc = std::move(both);
            }
        }
        return acc;
    }
      case NodeKind::For: {
        // Benchmark-style for loops have constant bounds and run at
        // least once, so treat the init assignment and the body's
        // guaranteed assignments as covering every path. (A zero-trip
        // loop could skip the body — accepted imprecision for a
        // warning-severity heuristic; while/repeat stay unproven.)
        auto *f = s.as<For>();
        std::set<std::string> acc;
        if (f->init)
            acc = fullyAssigned(*f->init, cx);
        if (f->body) {
            auto sub = fullyAssigned(*f->body, cx);
            acc.insert(sub.begin(), sub.end());
        }
        return acc;
      }
      default:
        // Other loops and timing controls cannot be proven to assign.
        return {};
    }
}

/** Every signal assigned anywhere under @p s. */
void
someAssigned(const Stmt &s, std::set<std::string> &out)
{
    if (s.kind == NodeKind::Assign) {
        std::vector<std::string> t;
        collectTargets(*s.as<Assign>()->lhs, t);
        out.insert(t.begin(), t.end());
        return;
    }
    const_cast<Stmt &>(s).forEachChild([&](Node *c) {
        if (!c)
            return;
        switch (c->kind) {
          case NodeKind::SeqBlock: case NodeKind::If: case NodeKind::Case:
          case NodeKind::For: case NodeKind::While: case NodeKind::Repeat:
          case NodeKind::Forever: case NodeKind::Assign:
          case NodeKind::DelayStmt: case NodeKind::EventCtrl:
          case NodeKind::Wait:
            someAssigned(*static_cast<Stmt *>(c), out);
            break;
          default:
            break;
        }
    });
}

} // namespace

void
checkProcesses(CheckContext &cx)
{
    // empty-sens: anywhere in the module (folded from validate, which
    // used to reject these; the process would block forever).
    if (cx.wants("empty-sens")) {
        for (auto &it : cx.mod.items) {
            visitAll(const_cast<Item &>(*it), [&](Node &n) {
                if (n.kind != NodeKind::EventCtrl)
                    return;
                auto *ec = n.as<EventCtrl>();
                if (!ec->star && ec->events.empty())
                    cx.emit("empty-sens", "", ec,
                            "event control with empty sensitivity list "
                            "(process can never resume)");
            });
        }
    }

    const bool sens = cx.wants("incomplete-sens");
    const bool latch = cx.wants("inferred-latch");
    if (!sens && !latch)
        return;
    for (auto &it : cx.mod.items) {
        if (it->kind != NodeKind::AlwaysBlock)
            continue;
        auto *blk = it->as<AlwaysBlock>();
        if (!blk->body || blk->body->kind != NodeKind::EventCtrl)
            continue;
        auto *ec = blk->body->as<EventCtrl>();
        if (!ec->stmt)
            continue;

        bool comb = isCombAlways(*blk);

        // incomplete-sens: explicit level-sensitive list missing some
        // of the signals the body reads.
        if (sens && comb && !ec->star) {
            std::set<std::string> listed;
            for (auto &ev : ec->events) {
                if (ev.signal->kind == NodeKind::Ident)
                    listed.insert(ev.signal->as<Ident>()->name);
                else if (ev.signal->kind == NodeKind::Index)
                    listed.insert(ev.signal->as<Index>()->name);
            }
            std::vector<std::string> reads;
            bool has_timing = false;
            stmtReads(*ec->stmt, reads, has_timing);
            // Signals the block itself computes — blocking
            // intermediates (sha3's theta/chi) and loop counters —
            // do not belong in the sensitivity list: their changes
            // originate inside the process.
            std::set<std::string> computed;
            someAssigned(*ec->stmt, computed);
            if (!has_timing) {
                std::set<std::string> missing;
                for (auto &r : reads) {
                    if (listed.count(r) || missing.count(r) ||
                        computed.count(r))
                        continue;
                    auto d = cx.info.decls.find(r);
                    if (d == cx.info.decls.end())
                        continue;
                    VarKind k = d->second->varKind;
                    if (k == VarKind::Parameter ||
                        k == VarKind::Localparam)
                        continue;
                    missing.insert(r);
                }
                if (!missing.empty()) {
                    std::string joined;
                    for (auto &m : missing)
                        joined += (joined.empty() ? "" : ",") + m;
                    cx.emit("incomplete-sens", joined, ec,
                            "sensitivity list misses signal(s) read "
                            "by the body: " + joined);
                }
            }
        }

        // inferred-latch: combinational process where some path skips
        // the assignment of a signal it drives elsewhere.
        if (latch && comb) {
            std::set<std::string> some;
            someAssigned(*ec->stmt, some);
            auto full = fullyAssigned(*ec->stmt, cx);
            for (auto &name : some) {
                if (full.count(name) || !cx.info.isReg(name))
                    continue;
                cx.emit("inferred-latch", name, ec,
                        "'" + name + "' is not assigned on every path "
                        "through this combinational block (latch "
                        "inferred)");
            }
        }
    }
}

// --------------------------------------------------------------------
// Width checks
// --------------------------------------------------------------------

namespace {

/**
 * Static bit width of @p e. nullopt means "unknown or self-sizing":
 * unsized literals stretch to their context in Verilog, so any
 * expression containing one is exempt from truncation warnings.
 */
std::optional<int>
exprWidth(const Expr &e, const ModuleInfo &info)
{
    switch (e.kind) {
      case NodeKind::Number: {
        auto *n = e.as<Number>();
        if (!n->sized)
            return std::nullopt;
        return n->value.width();
      }
      case NodeKind::Ident: {
        auto *id = e.as<Ident>();
        if (info.params.count(id->name))
            return std::nullopt;  // parameters size to context
        return info.width(id->name);
      }
      case NodeKind::Index: {
        // Indexing a memory selects a whole element; indexing a plain
        // vector selects one bit.
        auto *ix = e.as<Index>();
        return info.isArray(ix->name) ? info.width(ix->name)
                                      : std::optional<int>(1);
      }
      case NodeKind::RangeSel: {
        auto *r = e.as<RangeSel>();
        auto m = constEval(*r->msb, info.params);
        auto l = constEval(*r->lsb, info.params);
        if (!m || !l)
            return std::nullopt;
        long w = (*m > *l ? *m - *l : *l - *m) + 1;
        return w >= 1 && w <= 100000 ? std::optional<int>(int(w))
                                     : std::nullopt;
      }
      case NodeKind::Concat: {
        int sum = 0;
        for (auto &p : e.as<Concat>()->parts) {
            auto w = exprWidth(*p, info);
            if (!w)
                return std::nullopt;
            sum += *w;
        }
        return sum;
      }
      case NodeKind::Repl: {
        auto *r = e.as<Repl>();
        auto c = constEval(*r->count, info.params);
        auto w = exprWidth(*r->value, info);
        if (!c || !w || *c < 0 || *c * *w > 100000)
            return std::nullopt;
        return static_cast<int>(*c * *w);
      }
      case NodeKind::Unary: {
        auto *u = e.as<Unary>();
        switch (u->op) {
          case UnaryOp::Plus:
          case UnaryOp::Minus:
          case UnaryOp::BitNot:
            return exprWidth(*u->operand, info);
          default:
            return 1;  // logical not / reductions
        }
      }
      case NodeKind::Binary: {
        auto *b = e.as<Binary>();
        switch (b->op) {
          case BinaryOp::LogAnd: case BinaryOp::LogOr:
          case BinaryOp::Eq: case BinaryOp::Neq:
          case BinaryOp::CaseEq: case BinaryOp::CaseNeq:
          case BinaryOp::Lt: case BinaryOp::Le:
          case BinaryOp::Gt: case BinaryOp::Ge:
            return 1;
          case BinaryOp::Shl: case BinaryOp::Shr:
          case BinaryOp::Pow:
            return exprWidth(*b->lhs, info);
          default: {
            auto l = exprWidth(*b->lhs, info);
            auto r = exprWidth(*b->rhs, info);
            if (!l || !r)
                return std::nullopt;
            return std::max(*l, *r);
          }
        }
      }
      case NodeKind::Ternary: {
        auto *t = e.as<Ternary>();
        auto a = exprWidth(*t->thenExpr, info);
        auto b = exprWidth(*t->elseExpr, info);
        if (!a || !b)
            return std::nullopt;
        return std::max(*a, *b);
      }
      case NodeKind::FuncCall: {
        auto fit = info.functions.find(e.as<FuncCall>()->name);
        if (fit == info.functions.end())
            return std::nullopt;
        const FunctionDecl *f = fit->second;
        if (!f->msb || !f->lsb)
            return 1;
        auto m = constEval(*f->msb, info.params);
        auto l = constEval(*f->lsb, info.params);
        if (!m || !l)
            return std::nullopt;
        return static_cast<int>((*m > *l ? *m - *l : *l - *m) + 1);
      }
      default:
        return std::nullopt;
    }
}

std::optional<int>
lvalueWidth(const Expr &e, const ModuleInfo &info)
{
    switch (e.kind) {
      case NodeKind::Ident:
        return info.width(e.as<Ident>()->name);
      case NodeKind::Index: {
        auto *ix = e.as<Index>();
        return info.isArray(ix->name) ? info.width(ix->name)
                                      : std::optional<int>(1);
      }
      case NodeKind::RangeSel:
      case NodeKind::Concat:
        return exprWidth(e, info);
      default:
        return std::nullopt;
    }
}

void
checkAssignWidth(CheckContext &cx, const Expr &lhs, const Expr &rhs,
                 const Node *where)
{
    auto lw = lvalueWidth(lhs, cx.info);
    auto rw = exprWidth(rhs, cx.info);
    if (!lw || !rw || *rw <= *lw)
        return;
    std::vector<std::string> targets;
    collectTargets(lhs, targets);
    std::string name = targets.empty() ? std::string() : targets[0];
    cx.emit("width-mismatch", name, where,
            "expression of width " + std::to_string(*rw) +
                " truncated to " + std::to_string(*lw) +
                " bits in assignment to '" + name + "'");
}

} // namespace

void
checkWidths(CheckContext &cx)
{
    if (!cx.wants("width-mismatch"))
        return;
    for (auto &it : cx.mod.items) {
        switch (it->kind) {
          case NodeKind::ContAssign: {
            auto *a = it->as<ContAssign>();
            checkAssignWidth(cx, *a->lhs, *a->rhs, a);
            break;
          }
          case NodeKind::AlwaysBlock:
          case NodeKind::InitialBlock:
            visitAll(const_cast<Item &>(*it), [&](Node &n) {
                if (n.kind != NodeKind::Assign)
                    return;
                auto *a = n.as<Assign>();
                checkAssignWidth(cx, *a->lhs, *a->rhs, a);
            });
            break;
          case NodeKind::Instance: {
            auto *in = it->as<Instance>();
            auto target = cx.allInfo.find(in->moduleName);
            if (target == cx.allInfo.end())
                break;
            const ModuleInfo &ti = target->second;
            for (size_t i = 0; i < in->conns.size(); ++i) {
                const PortConn &c = in->conns[i];
                if (!c.expr)
                    continue;
                std::string port = c.port;
                if (port.empty() &&
                    i < target->second.mod->ports.size())
                    port = target->second.mod->ports[i].name;
                auto fw = ti.width(port);
                auto aw = exprWidth(*c.expr, cx.info);
                if (!fw || !aw || *fw == *aw)
                    continue;
                cx.emit("width-mismatch", port, c.expr.get(),
                        "port '" + port + "' of instance '" +
                            in->instName + "' is " +
                            std::to_string(*fw) +
                            " bits but the connection is " +
                            std::to_string(*aw) + " bits");
            }
            break;
          }
          default:
            break;
        }
    }
}

// --------------------------------------------------------------------
// Dead code
// --------------------------------------------------------------------

namespace {

bool
isTerminal(const Stmt &s)
{
    if (s.kind == NodeKind::Forever)
        return true;
    if (s.kind == NodeKind::SysTask) {
        const std::string &n = s.as<SysTask>()->name;
        return n == "$finish" || n == "$stop";
    }
    return false;
}

void
walkDead(CheckContext &cx, const Stmt &s)
{
    if (s.kind == NodeKind::SeqBlock) {
        auto *b = s.as<SeqBlock>();
        bool reported = false;
        for (size_t i = 0; i + 1 < b->stmts.size(); ++i) {
            if (!reported && b->stmts[i] && isTerminal(*b->stmts[i]) &&
                b->stmts[i + 1]) {
                cx.emit("dead-code", "", b->stmts[i + 1].get(),
                        "statement is unreachable (follows " +
                            std::string(b->stmts[i]->kind ==
                                                NodeKind::Forever
                                            ? "a forever loop"
                                            : "$finish/$stop") +
                            ")");
                reported = true;
            }
        }
    }
    if (s.kind == NodeKind::If) {
        auto *i = s.as<If>();
        auto v = constEval(*i->cond, cx.info.params);
        if (v && *v == 0 && i->thenStmt)
            cx.emit("dead-code", "", i->thenStmt.get(),
                    "branch is unreachable (condition is "
                    "constant false)");
        if (v && *v != 0 && i->elseStmt)
            cx.emit("dead-code", "", i->elseStmt.get(),
                    "branch is unreachable (condition is "
                    "constant true)");
    }
    const_cast<Stmt &>(s).forEachChild([&](Node *c) {
        if (!c)
            return;
        switch (c->kind) {
          case NodeKind::SeqBlock: case NodeKind::If: case NodeKind::Case:
          case NodeKind::For: case NodeKind::While: case NodeKind::Repeat:
          case NodeKind::Forever: case NodeKind::DelayStmt:
          case NodeKind::EventCtrl: case NodeKind::Wait:
            walkDead(cx, *static_cast<Stmt *>(c));
            break;
          default:
            break;
        }
    });
}

} // namespace

void
checkDeadCode(CheckContext &cx)
{
    if (!cx.wants("dead-code"))
        return;
    for (auto &it : cx.mod.items) {
        if (it->kind != NodeKind::AlwaysBlock &&
            it->kind != NodeKind::InitialBlock)
            continue;
        const Stmt *body = it->kind == NodeKind::AlwaysBlock
                               ? it->as<AlwaysBlock>()->body.get()
                               : it->as<InitialBlock>()->body.get();
        if (body)
            walkDead(cx, *body);
    }
}

} // namespace cirfix::lint
