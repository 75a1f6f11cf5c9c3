#include "sim/elaborate.h"

#include <unordered_map>
#include <unordered_set>

#include "sim/eval.h"
#include "sim/interp.h"

namespace cirfix::sim {

using namespace verilog;

namespace {

/** Merged view of (possibly several) declarations of one name. */
struct DeclInfo
{
    int width = 1;
    int lsb = 0;
    bool isReg = false;
    bool isArray = false;
    int64_t arrFirst = 0, arrLast = 0;
    const Expr *init = nullptr;
};

class Elaborator
{
  public:
    Elaborator(Design &design, const SourceFile &file)
        : design_(design), file_(file)
    {}

    void
    buildTop(const Module &top)
    {
        design_.setTop(buildScope(top, "", nullptr, {}));
    }

  private:
    Design &design_;
    const SourceFile &file_;
    int depth_ = 0;

    struct Binding
    {
        enum class Kind { None, Target, Expr };
        Kind kind = Kind::None;
        SignalRef target;              //!< alias target (parent signal)
        const Expr *expr = nullptr;    //!< parent-scope driving expr
        InstanceScope *parentScope = nullptr;
        PortDir dir = PortDir::Input;
    };

    using Bindings = std::unordered_map<std::string, Binding>;

    [[noreturn]] void
    fail(const std::string &path, const std::string &msg)
    {
        throw ElabError((path.empty() ? "top" : path) + ": " + msg);
    }

    /**
     * Re-evaluate @p rhs in @p rd_scope and write the result to
     * @p dst whenever any identifier read by rhs changes. Updates are
     * scheduled into the active region (never applied re-entrantly) so
     * combinational cycles degrade into detectable runaway activity
     * instead of native recursion.
     */
    void
    driveSignalFromExpr(InstanceScope &rd_scope, const Expr &rhs,
                        Signal *dst)
    {
        Design *d = &design_;
        auto pending = std::make_shared<bool>(false);
        auto update = [d, &rd_scope, &rhs, dst] {
            dst->set(evalExpr(rhs, rd_scope, *d));
        };
        auto schedule = [d, pending, update] {
            if (*pending)
                return;
            *pending = true;
            d->scheduler().scheduleActive([pending, update] {
                *pending = false;
                update();
            });
        };
        subscribe(rd_scope, rhs, schedule);
        schedule();
    }

    /** Zero-extending copy from @p src to @p dst on every change. */
    void
    bridgeSignals(Signal *src, Signal *dst)
    {
        Design *d = &design_;
        auto pending = std::make_shared<bool>(false);
        auto update = [src, dst] { dst->set(src->value()); };
        auto schedule = [d, pending, update] {
            if (*pending)
                return;
            *pending = true;
            d->scheduler().scheduleActive([pending, update] {
                *pending = false;
                update();
            });
        };
        src->addWatcher(
            [schedule](const LogicVec &, const LogicVec &) {
                schedule();
            });
        schedule();
    }

    /** Continuous assignment: lhs/rhs both in @p scope. */
    void
    makeContAssign(InstanceScope &scope, const Expr &lhs, const Expr &rhs)
    {
        Design *d = &design_;
        auto pending = std::make_shared<bool>(false);
        InstanceScope *sp = &scope;
        const Expr *lp = &lhs, *rp = &rhs;
        auto update = [d, sp, lp, rp] {
            WriteTarget t = resolveLValue(*d, *sp, *lp);
            performWrite(t, evalExpr(*rp, *sp, *d));
        };
        auto schedule = [d, pending, update] {
            if (*pending)
                return;
            *pending = true;
            d->scheduler().scheduleActive([pending, update] {
                *pending = false;
                update();
            });
        };
        subscribe(scope, rhs, schedule);
        // Index expressions inside the target also retrigger the drive.
        const_cast<Expr &>(lhs).forEachChild([&](Node *c) {
            if (c)
                subscribe(scope, *static_cast<Expr *>(c), schedule);
        });
        schedule();
    }

    /** Attach @p schedule as a watcher of every signal @p e reads. */
    void
    subscribe(InstanceScope &scope, const Expr &e,
              const std::function<void()> &schedule)
    {
        std::unordered_set<Signal *> seen;
        for (auto &name : collectIdents(e)) {
            SignalRef r = scope.findSignal(name);
            if (r.sig && seen.insert(r.sig).second)
                r.sig->addWatcher(
                    [schedule](const LogicVec &, const LogicVec &) {
                        schedule();
                    });
        }
    }

    std::unique_ptr<InstanceScope>
    buildScope(const Module &mod, const std::string &path,
               InstanceScope *parent, const Bindings &bindings)
    {
        if (++depth_ > 64)
            throw ElabError("instantiation depth limit exceeded "
                            "(recursive modules?)");
        auto scope = std::make_unique<InstanceScope>();
        scope->path = path;
        scope->module = &mod;
        scope->parent = parent;

        // 0. Functions are name-resolved lazily at call time.
        for (auto &item : mod.items) {
            if (item->kind == NodeKind::FunctionDecl) {
                auto *f = item->as<FunctionDecl>();
                scope->functions[f->name] = f;
            }
        }

        // 1. Parameters, in declaration order.
        for (auto &item : mod.items) {
            if (item->kind != NodeKind::VarDecl)
                continue;
            auto *d = item->as<VarDecl>();
            if (d->varKind != VarKind::Parameter &&
                d->varKind != VarKind::Localparam)
                continue;
            if (!d->init)
                fail(path, "parameter '" + d->name + "' lacks a value");
            scope->params[d->name] = evalConst(*d->init, scope->params);
        }

        // 2. Merge declarations per name.
        std::vector<std::string> order;
        std::unordered_map<std::string, DeclInfo> decls;
        for (auto &item : mod.items) {
            if (item->kind != NodeKind::VarDecl)
                continue;
            auto *d = item->as<VarDecl>();
            if (d->varKind == VarKind::Parameter ||
                d->varKind == VarKind::Localparam)
                continue;
            if (d->varKind == VarKind::Event) {
                if (!scope->events.count(d->name))
                    scope->events[d->name] = design_.makeEvent(
                        path.empty() ? d->name : path + "." + d->name);
                continue;
            }
            if (!decls.count(d->name)) {
                order.push_back(d->name);
                decls[d->name] = DeclInfo{};
            }
            DeclInfo &info = decls[d->name];
            if (d->varKind == VarKind::Reg)
                info.isReg = true;
            if (d->varKind == VarKind::Integer) {
                info.isReg = true;
                info.width = 32;
            }
            if (d->msb) {
                int64_t msb = evalConstInt(*d->msb, scope->params);
                int64_t lsb = evalConstInt(*d->lsb, scope->params);
                if (lsb > msb)
                    fail(path, "ascending range on '" + d->name +
                                   "' is not supported");
                info.width = static_cast<int>(msb - lsb + 1);
                info.lsb = static_cast<int>(lsb);
            }
            if (d->arrayFirst) {
                info.isArray = true;
                info.arrFirst =
                    evalConstInt(*d->arrayFirst, scope->params);
                info.arrLast = evalConstInt(*d->arrayLast, scope->params);
            }
            if (d->init)
                info.init = d->init.get();
        }
        // Ports without any body declaration default to scalar wires.
        for (auto &p : mod.ports) {
            if (!decls.count(p.name)) {
                order.push_back(p.name);
                decls[p.name] = DeclInfo{};
            }
        }

        // 3. Create (or alias) the runtime objects.
        for (auto &name : order) {
            const DeclInfo &info = decls[name];
            std::string full = path.empty() ? name : path + "." + name;
            if (info.isArray) {
                scope->memories[name] = design_.makeMemory(
                    full, info.width, info.arrFirst, info.arrLast);
                continue;
            }
            auto bind = bindings.find(name);
            if (bind != bindings.end() &&
                bind->second.kind == Binding::Kind::Target) {
                Signal *psig = bind->second.target.sig;
                if (psig->width() == info.width) {
                    scope->signals[name] = SignalRef{psig, info.lsb};
                    continue;
                }
                // Width mismatch (real tools warn and connect the low
                // bits): give the child its own signal and bridge it
                // to the parent in the port's direction.
                Signal *csig =
                    design_.makeSignal(full, info.width, info.isReg);
                scope->signals[name] = SignalRef{csig, info.lsb};
                if (bind->second.dir == PortDir::Output)
                    bridgeSignals(csig, psig);
                else
                    bridgeSignals(psig, csig);
                continue;
            }
            Signal *sig = design_.makeSignal(full, info.width,
                                             info.isReg);
            scope->signals[name] = SignalRef{sig, info.lsb};
            if (info.init)
                sig->initValue(evalConst(*info.init, scope->params));
            if (bind != bindings.end() &&
                bind->second.kind == Binding::Kind::Expr) {
                driveSignalFromExpr(*bind->second.parentScope,
                                    *bind->second.expr, sig);
            }
        }

        // 4. Behavioral items and children.
        for (auto &item : mod.items) {
            switch (item->kind) {
              case NodeKind::ContAssign: {
                auto *ca = item->as<ContAssign>();
                makeContAssign(*scope, *ca->lhs, *ca->rhs);
                break;
              }
              case NodeKind::AlwaysBlock: {
                auto *b = item->as<AlwaysBlock>();
                if (!b->body)
                    break;
                auto proc = std::make_unique<Process>(
                    design_, *scope, Process::Kind::Always, *b->body,
                    (path.empty() ? "" : path + ".") + "always@" +
                        std::to_string(b->line));
                proc->start();
                design_.adoptProcess(std::move(proc));
                break;
              }
              case NodeKind::InitialBlock: {
                auto *b = item->as<InitialBlock>();
                if (!b->body)
                    break;
                auto proc = std::make_unique<Process>(
                    design_, *scope, Process::Kind::Initial, *b->body,
                    (path.empty() ? "" : path + ".") + "initial@" +
                        std::to_string(b->line));
                proc->start();
                design_.adoptProcess(std::move(proc));
                break;
              }
              case NodeKind::Instance:
                buildInstance(*scope, *item->as<Instance>());
                break;
              default:
                break;
            }
        }

        --depth_;
        return scope;
    }

    void
    buildInstance(InstanceScope &parent, const Instance &inst)
    {
        const Module *child = file_.findModule(inst.moduleName);
        if (!child)
            fail(parent.path,
                 "instance of unknown module '" + inst.moduleName + "'");

        Bindings bindings;
        for (size_t i = 0; i < inst.conns.size(); ++i) {
            const PortConn &conn = inst.conns[i];
            std::string port_name = conn.port;
            if (port_name.empty()) {
                if (i >= child->ports.size())
                    fail(parent.path, "too many positional connections "
                                      "to '" + inst.instName + "'");
                port_name = child->ports[i].name;
            }
            auto dir = child->portDir(port_name);
            if (!dir)
                fail(parent.path, "unknown port '" + port_name +
                                      "' on module '" +
                                      inst.moduleName + "'");
            if (!conn.expr)
                continue;  // explicitly unconnected

            Binding b;
            b.dir = *dir;
            if (conn.expr->kind == NodeKind::Ident) {
                const std::string &n = conn.expr->as<Ident>()->name;
                if (SignalRef r = parent.findSignal(n); r.sig) {
                    b.kind = Binding::Kind::Target;
                    b.target = r;
                    bindings[port_name] = b;
                    continue;
                }
            }
            if (*dir != PortDir::Input)
                fail(parent.path,
                     "output port '" + port_name +
                         "' must be connected to a plain signal");
            b.kind = Binding::Kind::Expr;
            b.expr = conn.expr.get();
            b.parentScope = &parent;
            bindings[port_name] = b;
        }

        std::string child_path = parent.path.empty()
                                     ? inst.instName
                                     : parent.path + "." + inst.instName;
        parent.children.push_back(
            buildScope(*child, child_path, &parent, bindings));
    }
};

} // namespace

std::unique_ptr<Design>
elaborate(std::shared_ptr<const SourceFile> file, const std::string &top,
          const SimGuards &guards)
{
    const Module *top_mod = file->findModule(top);
    if (!top_mod)
        throw ElabError("top module '" + top + "' not found");
    auto design = std::make_unique<Design>();
    design->setGuards(guards);
    design->holdAst(file);
    Elaborator e(*design, *file);
    e.buildTop(*top_mod);
    return design;
}

std::unique_ptr<Design>
elaborate(const SourceFile &file, const std::string &top,
          const SimGuards &guards)
{
    std::shared_ptr<const SourceFile> copy = file.cloneFile();
    return elaborate(std::move(copy), top, guards);
}

} // namespace cirfix::sim
