#include "sim/design.h"

#include <thread>

#include "sim/interp.h"

namespace cirfix::sim {

InstanceScope *
InstanceScope::findChild(const std::string &inst_name) const
{
    std::string suffix = "." + inst_name;
    for (auto &c : children) {
        const std::string &p = c->path;
        if (p == inst_name ||
            (p.size() > suffix.size() &&
             p.compare(p.size() - suffix.size(), suffix.size(), suffix) ==
                 0))
            return c.get();
    }
    return nullptr;
}

SignalRef
InstanceScope::findSignal(const std::string &name) const
{
    auto it = signals.find(name);
    return it == signals.end() ? SignalRef{} : it->second;
}

Memory *
InstanceScope::findMemory(const std::string &name) const
{
    auto it = memories.find(name);
    return it == memories.end() ? nullptr : it->second;
}

NamedEvent *
InstanceScope::findEvent(const std::string &name) const
{
    auto it = events.find(name);
    return it == events.end() ? nullptr : it->second;
}

const verilog::FunctionDecl *
InstanceScope::findFunction(const std::string &name) const
{
    auto it = functions.find(name);
    return it == functions.end() ? nullptr : it->second;
}

Design::Design() = default;
Design::~Design() = default;

SignalRef
Design::findSignal(const std::string &hier_path)
{
    size_t dot = hier_path.rfind('.');
    if (dot == std::string::npos)
        return top_->findSignal(hier_path);
    InstanceScope *scope = findScope(hier_path.substr(0, dot));
    if (!scope)
        return SignalRef{};
    return scope->findSignal(hier_path.substr(dot + 1));
}

InstanceScope *
Design::findScope(const std::string &hier_path)
{
    InstanceScope *scope = top_.get();
    if (hier_path.empty())
        return scope;
    size_t start = 0;
    while (scope && start <= hier_path.size()) {
        size_t dot = hier_path.find('.', start);
        std::string part = hier_path.substr(
            start, dot == std::string::npos ? std::string::npos
                                            : dot - start);
        scope = scope->findChild(part);
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return scope;
}

void
Design::addDisplay(std::string line)
{
    if (log_.size() < kMaxLogLines)
        log_.push_back(std::move(line));
}

uint32_t
Design::nextRandom()
{
    // xorshift64*
    rngState_ ^= rngState_ >> 12;
    rngState_ ^= rngState_ << 25;
    rngState_ ^= rngState_ >> 27;
    return static_cast<uint32_t>((rngState_ * 0x2545F4914F6CDD1Dull) >>
                                 32);
}

Scheduler::RunResult
Design::run(const RunLimits &limits)
{
    stmtBudget_ = limits.maxStatements;
    if (limits.maxWallSeconds > 0) {
        hasDeadline_ = true;
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            limits.maxWallSeconds));
    } else {
        hasDeadline_ = false;
    }
    return sched_.run(limits.maxTime, limits.maxCallbacks,
                      limits.maxWallSeconds);
}

void
Design::setGuards(const SimGuards &guards)
{
    memBudget_ = guards.memBudgetBytes;
    fault_ = guards.faultPlan;
    faultArmed_ = fault_.throwAtStmt != 0 || fault_.stallAtStmt != 0;
}

void
Design::chargeAlloc(uint64_t bytes)
{
    ++allocCount_;
    if (fault_.failAllocAt && allocCount_ >= fault_.failAllocAt)
        throw SimOom("injected allocation failure (allocation " +
                     std::to_string(allocCount_) + ")");
    memUsed_ += bytes;
    if (memBudget_ && memUsed_ > memBudget_)
        throw SimOom("memory budget exhausted (" +
                     std::to_string(memUsed_) + " > " +
                     std::to_string(memBudget_) + " bytes)");
}

void
Design::checkDeadline()
{
    if (std::chrono::steady_clock::now() < deadline_)
        return;
    // Flag the scheduler first so the run status reads Deadline, then
    // unwind the executing process via the usual SimAbort path.
    sched_.noteDeadline("wall-clock deadline exceeded");
    throw SimAbort("wall-clock deadline exceeded",
                   SimAbort::Cause::Deadline);
}

void
Design::faultStmtHook()
{
    if (fault_.throwAtStmt && stmtCount_ >= fault_.throwAtStmt)
        throw std::runtime_error("injected fault: throw at statement " +
                                 std::to_string(stmtCount_));
    if (fault_.stallAtStmt && stmtCount_ >= fault_.stallAtStmt) {
        if (!hasDeadline_)
            throw std::runtime_error(
                "injected stall without an armed deadline");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        checkDeadline();
    }
}

Signal *
Design::makeSignal(const std::string &name, int width, bool is_reg)
{
    chargeAlloc(128 + static_cast<uint64_t>(width < 0 ? 0 : width) / 4);
    signals_.push_back(
        std::make_unique<Signal>(name, width, is_reg, &sched_));
    return signals_.back().get();
}

Memory *
Design::makeMemory(const std::string &name, int width, int64_t first,
                   int64_t last)
{
    uint64_t words =
        last >= first ? static_cast<uint64_t>(last - first + 1)
                      : static_cast<uint64_t>(first - last + 1);
    chargeAlloc(64 + words * (32 + static_cast<uint64_t>(
                                       width < 0 ? 0 : width) /
                                       4));
    memories_.push_back(std::make_unique<Memory>(name, width, first,
                                                 last));
    return memories_.back().get();
}

NamedEvent *
Design::makeEvent(const std::string &name)
{
    chargeAlloc(64);
    events_.push_back(std::make_unique<NamedEvent>(name));
    return events_.back().get();
}

void
Design::adoptProcess(std::unique_ptr<Process> p)
{
    processes_.push_back(std::move(p));
}

} // namespace cirfix::sim
