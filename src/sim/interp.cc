#include "sim/interp.h"

#include <sstream>

#include "sim/eval.h"

namespace cirfix::sim {

using namespace verilog;

// --------------------------------------------------------------------
// Awaiters
// --------------------------------------------------------------------

namespace {

/** Suspend until an absolute time (or the #0 inactive region). */
struct DelayAwaiter
{
    Scheduler *sched;
    SimTime delay;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (delay == 0)
            sched->scheduleInactive([h] { h.resume(); });
        else
            sched->scheduleAt(sched->now() + delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
};

/** Suspend until one of the listed edges/events fires. */
struct EventsAwaiter
{
    struct SigWait
    {
        Signal *sig;
        Edge edge;
        int bit;  //!< -1 = whole vector / LSB
    };

    Scheduler *sched;
    std::vector<SigWait> sigs;
    std::vector<NamedEvent *> events;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        auto handle =
            std::make_shared<WaitHandle>(sched, [h] { h.resume(); });
        for (auto &sw : sigs)
            sw.sig->addWaiter(sw.edge, sw.bit, handle);
        for (auto *ev : events)
            ev->addWaiter(handle);
        // With nothing to wait on the process simply stalls, like a
        // real simulator blocked on an event that never triggers.
    }
    void await_resume() const noexcept {}
};

// --------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------

uint64_t
evalDelay(Design &design, InstanceScope &scope, const Expr &e)
{
    LogicVec v = evalExpr(e, scope, design);
    return v.hasUnknown() ? 0 : v.toUint64();
}

bool
caseLabelMatches(CaseType type, const LogicVec &subj, const LogicVec &lab)
{
    int w = std::max(subj.width(), lab.width());
    LogicVec s = subj.resized(w), l = lab.resized(w);
    for (int i = 0; i < w; ++i) {
        Bit sb = s.bit(i), lb = l.bit(i);
        if (type == CaseType::CaseZ && (sb == Bit::Z || lb == Bit::Z))
            continue;
        if (type == CaseType::CaseX &&
            (sb == Bit::Z || sb == Bit::X || lb == Bit::Z ||
             lb == Bit::X))
            continue;
        if (sb != lb)
            return false;
    }
    return true;
}

/** Resolve the sensitivity of an event control in @p scope. */
void
resolveEvents(Design &design, InstanceScope &scope, const EventCtrl &ec,
              EventsAwaiter &out)
{
    out.sched = &design.scheduler();

    auto addSignalByName = [&](const std::string &name, Edge edge,
                               int bit) {
        if (SignalRef r = scope.findSignal(name); r.sig) {
            out.sigs.push_back({r.sig, edge, bit});
            return;
        }
        if (NamedEvent *ev = scope.findEvent(name))
            out.events.push_back(ev);
    };

    if (ec.star) {
        // @*: wait for a change of any identifier read in the body.
        std::vector<std::string> names;
        if (ec.stmt)
            names = collectIdents(*ec.stmt);
        std::vector<Signal *> seen;
        for (auto &n : names) {
            SignalRef r = scope.findSignal(n);
            if (!r.sig)
                continue;
            bool dup = false;
            for (Signal *s : seen)
                dup |= (s == r.sig);
            if (!dup) {
                seen.push_back(r.sig);
                out.sigs.push_back({r.sig, Edge::Level, -1});
            }
        }
        return;
    }

    for (auto &ev : ec.events) {
        const Expr &sig = *ev.signal;
        if (sig.kind == NodeKind::Ident) {
            addSignalByName(sig.as<Ident>()->name, ev.edge, -1);
        } else if (sig.kind == NodeKind::Index) {
            auto *ix = sig.as<Index>();
            SignalRef r = scope.findSignal(ix->name);
            if (!r.sig)
                continue;
            LogicVec idx = evalExpr(*ix->index, scope, design);
            int bit = idx.hasUnknown()
                          ? -1
                          : static_cast<int>(idx.toUint64()) - r.lsb;
            out.sigs.push_back({r.sig, ev.edge, bit});
        } else {
            // General expressions: watch every identifier they read.
            for (auto &n : collectIdents(sig))
                addSignalByName(n, Edge::Level, -1);
        }
    }
}

std::string
formatValue(const LogicVec &v, char spec)
{
    switch (spec) {
      case 'd': case 't':
        return v.toDecimalString();
      case 'b':
        return v.toString();
      case 'h': case 'x': {
        if (v.hasUnknown())
            return v.toString();
        static const char *digits = "0123456789abcdef";
        std::string s;
        int w = ((v.width() + 3) / 4) * 4;
        LogicVec padded = v.resized(w);
        for (int i = w - 4; i >= 0; i -= 4)
            s.push_back(digits[padded.slice(i + 3, i).toUint64()]);
        return s;
      }
      case 'c':
        return std::string(1, static_cast<char>(v.toUint64() & 0xff));
      default:
        return v.toDecimalString();
    }
}

void
runDisplay(Design &design, InstanceScope &scope, const SysTask &task)
{
    std::ostringstream os;
    size_t arg_i = 0;
    auto nextArg = [&]() -> LogicVec {
        if (arg_i < task.args.size())
            return evalExpr(*task.args[arg_i++], scope, design);
        return LogicVec::xs(1);
    };
    if (task.format) {
        const std::string &fmt = *task.format;
        for (size_t i = 0; i < fmt.size(); ++i) {
            if (fmt[i] != '%' || i + 1 >= fmt.size()) {
                os << fmt[i];
                continue;
            }
            ++i;
            while (i < fmt.size() &&
                   (std::isdigit(static_cast<unsigned char>(fmt[i]))))
                ++i;  // ignore width specifiers like %0d
            if (i >= fmt.size())
                break;
            char spec = static_cast<char>(
                std::tolower(static_cast<unsigned char>(fmt[i])));
            if (spec == '%') {
                os << '%';
            } else if (spec == 'm') {
                os << (scope.path.empty() ? "top" : scope.path);
            } else if (spec == 's') {
                os << formatValue(nextArg(), 'c');
            } else {
                os << formatValue(nextArg(), spec);
            }
        }
        while (arg_i < task.args.size()) {
            os << " ";
            os << formatValue(nextArg(), 'd');
        }
    } else {
        for (size_t i = 0; i < task.args.size(); ++i) {
            if (i)
                os << " ";
            os << formatValue(nextArg(), 'd');
        }
    }
    design.addDisplay(os.str());
}

} // namespace

/**
 * Conservative "can this statement suspend the process?" analysis,
 * cached on the node. Statements that cannot suspend are executed by
 * the synchronous fast path below, avoiding a coroutine frame per
 * statement (a large win for combinational always blocks with loops).
 */
bool
mightSuspend(const Stmt &stmt)
{
    int8_t cached = stmt.suspendCache.load(std::memory_order_relaxed);
    if (cached >= 0)
        return cached != 0;
    bool result = false;
    switch (stmt.kind) {
      case NodeKind::DelayStmt:
      case NodeKind::EventCtrl:
      case NodeKind::Wait:
        result = true;
        break;
      case NodeKind::Assign:
        // Only a *blocking* intra-assignment delay suspends; NBA
        // delays are scheduled without blocking the process.
        result = stmt.as<Assign>()->blocking &&
                 stmt.as<Assign>()->delay != nullptr;
        break;
      case NodeKind::SeqBlock:
        for (auto &s : stmt.as<SeqBlock>()->stmts)
            if (s && mightSuspend(*s))
                result = true;
        break;
      case NodeKind::If: {
        auto *s = stmt.as<If>();
        result = (s->thenStmt && mightSuspend(*s->thenStmt)) ||
                 (s->elseStmt && mightSuspend(*s->elseStmt));
        break;
      }
      case NodeKind::Case:
        for (auto &item : stmt.as<Case>()->items)
            if (item.body && mightSuspend(*item.body))
                result = true;
        break;
      case NodeKind::For: {
        auto *s = stmt.as<For>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      case NodeKind::While: {
        auto *s = stmt.as<While>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      case NodeKind::Repeat: {
        auto *s = stmt.as<Repeat>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      case NodeKind::Forever: {
        auto *s = stmt.as<Forever>();
        result = s->body && mightSuspend(*s->body);
        break;
      }
      default:
        result = false;
        break;
    }
    stmt.suspendCache.store(result ? 1 : 0, std::memory_order_relaxed);
    return result;
}

/** Synchronous executor for statements that cannot suspend. */
void
execStmtSync(Design &design, InstanceScope &scope, const Stmt &stmt)
{
    design.chargeStmt();
    Scheduler &sched = design.scheduler();

    switch (stmt.kind) {
      case NodeKind::SeqBlock:
        for (auto &s : stmt.as<SeqBlock>()->stmts) {
            if (sched.finishRequested())
                return;
            if (s)
                execStmtSync(design, scope, *s);
        }
        return;
      case NodeKind::If: {
        auto *s = stmt.as<If>();
        LogicVec c = evalExpr(*s->cond, scope, design);
        if (c.isTrue()) {
            if (s->thenStmt)
                execStmtSync(design, scope, *s->thenStmt);
        } else if (s->elseStmt) {
            execStmtSync(design, scope, *s->elseStmt);
        }
        return;
      }
      case NodeKind::Case: {
        auto *s = stmt.as<Case>();
        LogicVec subj = evalExpr(*s->subject, scope, design);
        const CaseItem *dflt = nullptr;
        for (auto &item : s->items) {
            if (item.labels.empty()) {
                dflt = &item;
                continue;
            }
            for (auto &lab : item.labels) {
                LogicVec lv = evalExpr(*lab, scope, design);
                if (caseLabelMatches(s->type, subj, lv)) {
                    if (item.body)
                        execStmtSync(design, scope, *item.body);
                    return;
                }
            }
        }
        if (dflt && dflt->body)
            execStmtSync(design, scope, *dflt->body);
        return;
      }
      case NodeKind::For: {
        auto *s = stmt.as<For>();
        if (s->init)
            execStmtSync(design, scope, *s->init);
        while (evalExpr(*s->cond, scope, design).isTrue()) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            if (s->step)
                execStmtSync(design, scope, *s->step);
            design.chargeStmt();
        }
        return;
      }
      case NodeKind::While: {
        auto *s = stmt.as<While>();
        while (evalExpr(*s->cond, scope, design).isTrue()) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            design.chargeStmt();
        }
        return;
      }
      case NodeKind::Repeat: {
        auto *s = stmt.as<Repeat>();
        LogicVec n = evalExpr(*s->count, scope, design);
        uint64_t count = n.hasUnknown() ? 0 : n.toUint64();
        for (uint64_t i = 0; i < count; ++i) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            design.chargeStmt();
        }
        return;
      }
      case NodeKind::Forever: {
        // A forever with no timing control inside: spin until the
        // statement budget aborts it (runaway mutant).
        auto *s = stmt.as<Forever>();
        for (;;) {
            if (sched.finishRequested())
                return;
            if (s->body)
                execStmtSync(design, scope, *s->body);
            design.chargeStmt();
        }
      }
      case NodeKind::Assign: {
        auto *s = stmt.as<Assign>();
        LogicVec rhs = evalExpr(*s->rhs, scope, design);
        if (s->blocking) {
            WriteTarget t = resolveLValue(design, scope, *s->lhs);
            performWrite(t, rhs);
        } else {
            WriteTarget t = resolveLValue(design, scope, *s->lhs);
            uint64_t d =
                s->delay ? evalDelay(design, scope, *s->delay) : 0;
            auto update = [t = std::move(t), rhs]() {
                performWrite(t, rhs);
            };
            if (d == 0)
                sched.scheduleNba(std::move(update));
            else
                sched.scheduleNbaAt(sched.now() + d, std::move(update));
        }
        return;
      }
      case NodeKind::TriggerEvent: {
        auto *s = stmt.as<TriggerEvent>();
        if (NamedEvent *ev = scope.findEvent(s->name))
            ev->trigger();
        return;
      }
      case NodeKind::SysTask: {
        auto *s = stmt.as<SysTask>();
        if (s->name == "$finish" || s->name == "$stop") {
            sched.requestFinish();
        } else if (s->name == "$display" || s->name == "$write" ||
                   s->name == "$strobe" || s->name == "$monitor" ||
                   s->name == "$error" || s->name == "$info") {
            runDisplay(design, scope, *s);
        }
        return;
      }
      case NodeKind::NullStmt:
      default:
        return;
    }
}

// --------------------------------------------------------------------
// Statement execution
// --------------------------------------------------------------------

Task
execStmt(Design &design, InstanceScope &scope, const Stmt &stmt)
{
    design.chargeStmt();
    Scheduler &sched = design.scheduler();

    switch (stmt.kind) {
      case NodeKind::SeqBlock: {
        auto *blk = stmt.as<SeqBlock>();
        for (auto &s : blk->stmts) {
            if (sched.finishRequested())
                co_return;
            if (s)
                {
                if (!mightSuspend(*s))
                    execStmtSync(design, scope, *s);
                else
                    co_await execStmt(design, scope, *s);
            }
        }
        co_return;
      }
      case NodeKind::If: {
        auto *s = stmt.as<If>();
        LogicVec c = evalExpr(*s->cond, scope, design);
        if (c.isTrue()) {
            if (s->thenStmt)
                {
                if (!mightSuspend(*s->thenStmt))
                    execStmtSync(design, scope, *s->thenStmt);
                else
                    co_await execStmt(design, scope, *s->thenStmt);
            }
        } else if (s->elseStmt) {
            {
                if (!mightSuspend(*s->elseStmt))
                    execStmtSync(design, scope, *s->elseStmt);
                else
                    co_await execStmt(design, scope, *s->elseStmt);
            }
        }
        co_return;
      }
      case NodeKind::Case: {
        auto *s = stmt.as<Case>();
        LogicVec subj = evalExpr(*s->subject, scope, design);
        const CaseItem *dflt = nullptr;
        for (auto &item : s->items) {
            if (item.labels.empty()) {
                dflt = &item;
                continue;
            }
            for (auto &lab : item.labels) {
                LogicVec lv = evalExpr(*lab, scope, design);
                if (caseLabelMatches(s->type, subj, lv)) {
                    if (item.body)
                        {
                if (!mightSuspend(*item.body))
                    execStmtSync(design, scope, *item.body);
                else
                    co_await execStmt(design, scope, *item.body);
            }
                    co_return;
                }
            }
        }
        if (dflt && dflt->body)
            {
                if (!mightSuspend(*dflt->body))
                    execStmtSync(design, scope, *dflt->body);
                else
                    co_await execStmt(design, scope, *dflt->body);
            }
        co_return;
      }
      case NodeKind::For: {
        auto *s = stmt.as<For>();
        if (s->init)
            {
                if (!mightSuspend(*s->init))
                    execStmtSync(design, scope, *s->init);
                else
                    co_await execStmt(design, scope, *s->init);
            }
        while (evalExpr(*s->cond, scope, design).isTrue()) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            if (s->step)
                {
                if (!mightSuspend(*s->step))
                    execStmtSync(design, scope, *s->step);
                else
                    co_await execStmt(design, scope, *s->step);
            }
            design.chargeStmt();
        }
        co_return;
      }
      case NodeKind::While: {
        auto *s = stmt.as<While>();
        while (evalExpr(*s->cond, scope, design).isTrue()) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            design.chargeStmt();
        }
        co_return;
      }
      case NodeKind::Repeat: {
        auto *s = stmt.as<Repeat>();
        LogicVec n = evalExpr(*s->count, scope, design);
        uint64_t count = n.hasUnknown() ? 0 : n.toUint64();
        for (uint64_t i = 0; i < count; ++i) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            design.chargeStmt();
        }
        co_return;
      }
      case NodeKind::Forever: {
        auto *s = stmt.as<Forever>();
        for (;;) {
            if (sched.finishRequested())
                co_return;
            if (s->body)
                {
                if (!mightSuspend(*s->body))
                    execStmtSync(design, scope, *s->body);
                else
                    co_await execStmt(design, scope, *s->body);
            }
            design.chargeStmt();
        }
      }
      case NodeKind::Assign: {
        auto *s = stmt.as<Assign>();
        LogicVec rhs = evalExpr(*s->rhs, scope, design);
        if (s->blocking) {
            if (s->delay) {
                uint64_t d = evalDelay(design, scope, *s->delay);
                co_await DelayAwaiter{&sched, d};
            }
            WriteTarget t = resolveLValue(design, scope, *s->lhs);
            performWrite(t, rhs);
        } else {
            WriteTarget t = resolveLValue(design, scope, *s->lhs);
            uint64_t d =
                s->delay ? evalDelay(design, scope, *s->delay) : 0;
            auto update = [t = std::move(t), rhs]() {
                performWrite(t, rhs);
            };
            if (d == 0)
                sched.scheduleNba(std::move(update));
            else
                sched.scheduleNbaAt(sched.now() + d, std::move(update));
        }
        co_return;
      }
      case NodeKind::DelayStmt: {
        auto *s = stmt.as<DelayStmt>();
        uint64_t d = evalDelay(design, scope, *s->delay);
        co_await DelayAwaiter{&sched, d};
        if (s->stmt)
            {
                if (!mightSuspend(*s->stmt))
                    execStmtSync(design, scope, *s->stmt);
                else
                    co_await execStmt(design, scope, *s->stmt);
            }
        co_return;
      }
      case NodeKind::EventCtrl: {
        auto *s = stmt.as<EventCtrl>();
        EventsAwaiter aw;
        resolveEvents(design, scope, *s, aw);
        co_await aw;
        if (s->stmt)
            {
                if (!mightSuspend(*s->stmt))
                    execStmtSync(design, scope, *s->stmt);
                else
                    co_await execStmt(design, scope, *s->stmt);
            }
        co_return;
      }
      case NodeKind::Wait: {
        auto *s = stmt.as<Wait>();
        while (!evalExpr(*s->cond, scope, design).isTrue()) {
            EventsAwaiter aw;
            aw.sched = &sched;
            for (auto &n : collectIdents(*s->cond)) {
                if (SignalRef r = scope.findSignal(n); r.sig)
                    aw.sigs.push_back({r.sig, Edge::Level, -1});
            }
            if (aw.sigs.empty())
                co_return;  // condition can never change
            co_await aw;
            design.chargeStmt();
        }
        if (s->stmt)
            {
                if (!mightSuspend(*s->stmt))
                    execStmtSync(design, scope, *s->stmt);
                else
                    co_await execStmt(design, scope, *s->stmt);
            }
        co_return;
      }
      case NodeKind::TriggerEvent: {
        auto *s = stmt.as<TriggerEvent>();
        if (NamedEvent *ev = scope.findEvent(s->name))
            ev->trigger();
        co_return;
      }
      case NodeKind::SysTask: {
        auto *s = stmt.as<SysTask>();
        if (s->name == "$finish" || s->name == "$stop") {
            sched.requestFinish();
        } else if (s->name == "$display" || s->name == "$write" ||
                   s->name == "$strobe" || s->name == "$monitor" ||
                   s->name == "$error" || s->name == "$info") {
            runDisplay(design, scope, *s);
        }
        // Unknown tasks ($dumpfile, $dumpvars, ...) are ignored.
        co_return;
      }
      case NodeKind::NullStmt:
        co_return;
      default:
        // Statement kinds that cannot appear here (defensive).
        co_return;
    }
}

// --------------------------------------------------------------------
// Process
// --------------------------------------------------------------------

Process::Process(Design &design, InstanceScope &scope, Kind kind,
                 const Stmt &body, std::string name)
    : design_(design), scope_(scope), kind_(kind), body_(body),
      name_(std::move(name)), root_(root(this))
{}

void
Process::start()
{
    // Kick the root coroutine in the active region of the current
    // (elaboration) time.
    design_.scheduler().scheduleActive([this] { root_.resume(); });
}

Task
Process::root(Process *self)
{
    try {
        if (self->kind_ == Kind::Always) {
            for (;;) {
                if (self->design_.scheduler().finishRequested())
                    co_return;
                if (!mightSuspend(self->body_))
                    execStmtSync(self->design_, self->scope_,
                                 self->body_);
                else
                    co_await execStmt(self->design_, self->scope_,
                                      self->body_);
                self->design_.chargeStmt();
            }
        } else {
            if (!mightSuspend(self->body_))
                execStmtSync(self->design_, self->scope_,
                             self->body_);
            else
                co_await execStmt(self->design_, self->scope_,
                                  self->body_);
        }
    } catch (const SimAbort &e) {
        self->design_.scheduler().noteAbort(e.what());
    } catch (const std::exception &e) {
        // Anything that is not a budget abort is a crash: SimOom from
        // the memory budget, injected faults, or interpreter bugs. The
        // first-abort-wins latch keeps an earlier Deadline/Runaway
        // classification intact while this unwinds.
        self->design_.scheduler().noteCrash(
            std::string("process crashed: ") + e.what());
    }
}

} // namespace cirfix::sim
