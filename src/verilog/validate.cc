#include "verilog/validate.h"

#include <unordered_map>
#include <unordered_set>

namespace cirfix::verilog {

namespace {

struct ModuleScope
{
    std::unordered_map<std::string, const VarDecl *> decls;
    std::unordered_set<std::string> events;
    std::unordered_set<std::string> regs;  //!< assignable in procedures
    std::unordered_map<std::string, const FunctionDecl *> functions;
};

ModuleScope
buildScope(const Module &mod)
{
    ModuleScope sc;
    for (auto &it : mod.items) {
        if (it->kind == NodeKind::FunctionDecl) {
            auto *f = it->as<FunctionDecl>();
            sc.functions[f->name] = f;
            continue;
        }
        if (it->kind != NodeKind::VarDecl)
            continue;
        auto *d = it->as<VarDecl>();
        if (d->varKind == VarKind::Event) {
            sc.events.insert(d->name);
            continue;
        }
        // Later declarations of the same name refine earlier ones
        // (e.g., "output q;" followed by "reg q;").
        sc.decls[d->name] = d;
        if (d->varKind == VarKind::Reg || d->varKind == VarKind::Integer)
            sc.regs.insert(d->name);
    }
    return sc;
}

class Validator
{
  public:
    explicit Validator(const SourceFile &file) : file_(file) {}

    /** Check every module, or only @p modules when non-null. */
    std::vector<ValidationError>
    run(const std::vector<size_t> *modules)
    {
        if (modules) {
            for (size_t i : *modules)
                checkModule(*file_.modules.at(i));
        } else {
            for (auto &m : file_.modules)
                checkModule(*m);
        }
        return std::move(errors_);
    }

  private:
    const SourceFile &file_;
    std::vector<ValidationError> errors_;
    const Module *cur_ = nullptr;
    ModuleScope scope_;
    const Node *loc_ = nullptr;  //!< innermost node being checked

    /** Scoped tracker so diagnostics carry the nearest node's span. */
    struct LocGuard
    {
        Validator &v;
        const Node *saved;
        LocGuard(Validator &v_, const Node &n) : v(v_), saved(v_.loc_)
        {
            v.loc_ = &n;
        }
        ~LocGuard() { v.loc_ = saved; }
    };

    void
    error(const std::string &msg)
    {
        ValidationError e;
        e.module = cur_ ? cur_->name : "";
        e.message = msg;
        if (loc_) {
            e.line = loc_->line;
            e.span = loc_->span;
        }
        errors_.push_back(std::move(e));
    }

    void
    checkModule(const Module &mod)
    {
        cur_ = &mod;
        scope_ = buildScope(mod);
        for (auto &p : mod.ports) {
            if (!scope_.decls.count(p.name))
                error("port '" + p.name + "' has no declaration");
        }
        for (auto &it : mod.items)
            checkItem(*it);
    }

    void
    checkItem(const Item &it)
    {
        LocGuard loc(*this, it);
        switch (it.kind) {
          case NodeKind::VarDecl: {
            auto *d = it.as<VarDecl>();
            if (d->init)
                checkExpr(*d->init);
            break;
          }
          case NodeKind::ContAssign: {
            auto *a = it.as<ContAssign>();
            checkLValue(*a->lhs, false);
            checkExpr(*a->rhs);
            break;
          }
          case NodeKind::AlwaysBlock: {
            auto *b = it.as<AlwaysBlock>();
            if (!b->body) {
                error("always block with no body");
            } else {
                checkStmt(*b->body);
            }
            break;
          }
          case NodeKind::InitialBlock: {
            auto *b = it.as<InitialBlock>();
            if (!b->body) {
                error("initial block with no body");
            } else {
                checkStmt(*b->body);
            }
            break;
          }
          case NodeKind::FunctionDecl: {
            auto *f = it.as<FunctionDecl>();
            if (!f->body) {
                error("function '" + f->name + "' has no body");
                break;
            }
            // Function bodies see the module scope plus their locals
            // and the function-name result register, and must not
            // contain timing controls.
            ModuleScope saved = scope_;
            scope_.decls[f->name] = nullptr;
            scope_.regs.insert(f->name);
            for (auto &l : f->locals) {
                scope_.decls[l->name] = l.get();
                scope_.regs.insert(l->name);
            }
            checkNoTiming(*f->body, f->name);
            checkStmt(*f->body);
            scope_ = std::move(saved);
            break;
          }
          case NodeKind::Instance: {
            auto *in = it.as<Instance>();
            const Module *target = file_.findModule(in->moduleName);
            if (!target)
                error("instance of unknown module '" + in->moduleName +
                      "'");
            for (auto &c : in->conns) {
                if (c.expr)
                    checkExpr(*c.expr);
                if (target && !c.port.empty() &&
                    !target->portDir(c.port)) {
                    error("connection to unknown port '" + c.port +
                          "' of module '" + in->moduleName + "'");
                }
            }
            break;
          }
          default:
            error(std::string("unexpected item kind ") +
                  nodeKindName(it.kind));
        }
    }

    /** Functions execute in zero time: no delays/events/waits. */
    void
    checkNoTiming(const Stmt &s, const std::string &fn_name)
    {
        visitAll(const_cast<Stmt &>(s), [&](Node &n) {
            switch (n.kind) {
              case NodeKind::DelayStmt:
              case NodeKind::EventCtrl:
              case NodeKind::Wait:
              case NodeKind::TriggerEvent:
                error("timing control inside function '" + fn_name +
                      "'");
                break;
              case NodeKind::Assign:
                if (!n.as<Assign>()->blocking || n.as<Assign>()->delay)
                    error("non-blocking or delayed assignment inside "
                          "function '" + fn_name + "'");
                break;
              default:
                break;
            }
        });
    }

    void
    checkStmt(const Stmt &s)
    {
        LocGuard loc(*this, s);
        switch (s.kind) {
          case NodeKind::SeqBlock:
            for (auto &child : s.as<SeqBlock>()->stmts) {
                if (!child)
                    error("null statement in block");
                else
                    checkStmt(*child);
            }
            break;
          case NodeKind::If: {
            auto *i = s.as<If>();
            checkExpr(*i->cond);
            if (i->thenStmt)
                checkStmt(*i->thenStmt);
            if (i->elseStmt)
                checkStmt(*i->elseStmt);
            break;
          }
          case NodeKind::Case: {
            auto *c = s.as<Case>();
            checkExpr(*c->subject);
            for (auto &itc : c->items) {
                for (auto &l : itc.labels)
                    checkExpr(*l);
                if (itc.body)
                    checkStmt(*itc.body);
            }
            break;
          }
          case NodeKind::For: {
            auto *f = s.as<For>();
            if (f->init)
                checkStmt(*f->init);
            checkExpr(*f->cond);
            if (f->step)
                checkStmt(*f->step);
            if (f->body)
                checkStmt(*f->body);
            break;
          }
          case NodeKind::While: {
            auto *w = s.as<While>();
            checkExpr(*w->cond);
            if (w->body)
                checkStmt(*w->body);
            break;
          }
          case NodeKind::Repeat: {
            auto *r = s.as<Repeat>();
            checkExpr(*r->count);
            if (r->body)
                checkStmt(*r->body);
            break;
          }
          case NodeKind::Forever: {
            auto *f = s.as<Forever>();
            if (f->body)
                checkStmt(*f->body);
            break;
          }
          case NodeKind::Assign: {
            auto *a = s.as<Assign>();
            checkLValue(*a->lhs, true);
            checkExpr(*a->rhs);
            if (a->delay)
                checkExpr(*a->delay);
            break;
          }
          case NodeKind::DelayStmt: {
            auto *d = s.as<DelayStmt>();
            checkExpr(*d->delay);
            if (d->stmt)
                checkStmt(*d->stmt);
            break;
          }
          case NodeKind::EventCtrl: {
            auto *e = s.as<EventCtrl>();
            for (auto &ev : e->events) {
                if (!ev.signal) {
                    error("event control with null signal");
                    continue;
                }
                checkExpr(*ev.signal);
                if (ev.edge != Edge::Level &&
                    ev.signal->kind != NodeKind::Ident &&
                    ev.signal->kind != NodeKind::Index) {
                    error("edge event on a non-signal expression");
                }
            }
            // Empty sensitivity lists are legal (if useless) Verilog;
            // the lint subsystem reports them (check "empty-sens")
            // rather than validate rejecting the design outright.
            if (e->stmt)
                checkStmt(*e->stmt);
            break;
          }
          case NodeKind::Wait: {
            auto *w = s.as<Wait>();
            checkExpr(*w->cond);
            if (w->stmt)
                checkStmt(*w->stmt);
            break;
          }
          case NodeKind::TriggerEvent: {
            auto *t = s.as<TriggerEvent>();
            if (!scope_.events.count(t->name))
                error("trigger of undeclared event '" + t->name + "'");
            break;
          }
          case NodeKind::SysTask:
            for (auto &a : s.as<SysTask>()->args)
                checkExpr(*a);
            break;
          case NodeKind::NullStmt:
            break;
          default:
            error(std::string("unexpected statement kind ") +
                  nodeKindName(s.kind));
        }
    }

    /**
     * Validate an assignment target. Procedural assignments must write
     * regs/integers; continuous assignments must write wires.
     */
    void
    checkLValue(const Expr &e, bool procedural)
    {
        switch (e.kind) {
          case NodeKind::Ident:
            checkTargetName(e.as<Ident>()->name, procedural);
            break;
          case NodeKind::Index: {
            auto *ix = e.as<Index>();
            checkTargetName(ix->name, procedural);
            checkExpr(*ix->index);
            break;
          }
          case NodeKind::RangeSel: {
            auto *r = e.as<RangeSel>();
            checkTargetName(r->name, procedural);
            checkExpr(*r->msb);
            checkExpr(*r->lsb);
            break;
          }
          case NodeKind::Concat:
            for (auto &p : e.as<Concat>()->parts)
                checkLValue(*p, procedural);
            break;
          default:
            error(std::string("invalid assignment target of kind ") +
                  nodeKindName(e.kind));
        }
    }

    void
    checkTargetName(const std::string &name, bool procedural)
    {
        auto it = scope_.decls.find(name);
        if (it == scope_.decls.end()) {
            error("assignment to undeclared name '" + name + "'");
            return;
        }
        if (procedural && !scope_.regs.count(name))
            error("procedural assignment to non-reg '" + name + "'");
        if (!procedural && scope_.regs.count(name))
            error("continuous assignment to reg '" + name + "'");
    }

    void
    checkExpr(const Expr &e)
    {
        LocGuard loc(*this, e);
        switch (e.kind) {
          case NodeKind::Number:
            break;
          case NodeKind::Ident: {
            const std::string &n = e.as<Ident>()->name;
            if (!scope_.decls.count(n) && !scope_.events.count(n))
                error("reference to undeclared name '" + n + "'");
            break;
          }
          case NodeKind::Index: {
            auto *ix = e.as<Index>();
            if (!scope_.decls.count(ix->name))
                error("reference to undeclared name '" + ix->name + "'");
            checkExpr(*ix->index);
            break;
          }
          case NodeKind::RangeSel: {
            auto *r = e.as<RangeSel>();
            if (!scope_.decls.count(r->name))
                error("reference to undeclared name '" + r->name + "'");
            checkExpr(*r->msb);
            checkExpr(*r->lsb);
            break;
          }
          case NodeKind::FuncCall: {
            auto *f = e.as<FuncCall>();
            auto fit = scope_.functions.find(f->name);
            if (fit == scope_.functions.end()) {
                error("call of undeclared function '" + f->name + "'");
            } else if (f->args.size() !=
                       fit->second->inputOrder.size()) {
                error("function '" + f->name + "' called with " +
                      std::to_string(f->args.size()) +
                      " argument(s), expects " +
                      std::to_string(fit->second->inputOrder.size()));
            }
            for (auto &a : f->args)
                checkExpr(*a);
            break;
          }
          default:
            const_cast<Expr &>(e).forEachChild([&](Node *c) {
                if (c)
                    checkExpr(*static_cast<Expr *>(c));
            });
        }
    }
};

} // namespace

std::vector<ValidationError>
validate(const SourceFile &file)
{
    return Validator(file).run(nullptr);
}

bool
isValid(const SourceFile &file)
{
    return validate(file).empty();
}

bool
isValid(const SourceFile &file, const std::vector<size_t> &modules)
{
    return Validator(file).run(&modules).empty();
}

} // namespace cirfix::verilog
