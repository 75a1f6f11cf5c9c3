#include "core/evaloutcome.h"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "sim/elaborate.h"

namespace cirfix::core {

const char *
evalOutcomeName(EvalOutcome o)
{
    switch (o) {
      case EvalOutcome::Ok: return "ok";
      case EvalOutcome::ParseFail: return "parse-fail";
      case EvalOutcome::ElabFail: return "elab-fail";
      case EvalOutcome::Runaway: return "runaway";
      case EvalOutcome::Deadline: return "deadline";
      case EvalOutcome::Oom: return "oom";
      case EvalOutcome::Crashed: return "crashed";
      case EvalOutcome::LintReject: return "lint-reject";
    }
    return "?";
}

EvalOutcome
evalOutcomeFromName(const std::string &name)
{
    for (int i = 0; i < kEvalOutcomeCount; ++i) {
        EvalOutcome o = static_cast<EvalOutcome>(i);
        if (name == evalOutcomeName(o))
            return o;
    }
    throw std::runtime_error("unknown evaluation outcome: " + name);
}

bool OutcomeCounts::operator==(const OutcomeCounts &) const = default;

long
OutcomeCounts::failures() const
{
    return total() - of(EvalOutcome::Ok);
}

long
OutcomeCounts::total() const
{
    long t = 0;
    for (long c : counts)
        t += c;
    return t;
}

std::string
OutcomeCounts::summary() const
{
    std::ostringstream os;
    for (int i = 0; i < kEvalOutcomeCount; ++i) {
        if (i)
            os << " ";
        os << evalOutcomeName(static_cast<EvalOutcome>(i)) << "="
           << counts[static_cast<size_t>(i)];
    }
    os << " quarantine-hits=" << quarantineHits;
    return os.str();
}

GuardedRun
runGuarded(std::shared_ptr<const verilog::SourceFile> file,
           const std::string &top, const sim::ProbeConfig &probe,
           const sim::SimGuards &guards, const sim::RunLimits &limits)
{
    using SimStatus = sim::Scheduler::Status;

    GuardedRun r;
    std::unique_ptr<sim::Design> design;
    std::optional<sim::TraceRecorder> rec;  // dies before the design
    try {
        design = sim::elaborate(std::move(file), top, guards);
        rec.emplace(*design, probe);
        switch (design->run(limits).status) {
          case SimStatus::Runaway:
            r.outcome = EvalOutcome::Runaway;
            break;
          case SimStatus::Deadline:
            r.outcome = EvalOutcome::Deadline;
            break;
          case SimStatus::Crashed:
            r.outcome = EvalOutcome::Crashed;
            break;
          default:
            break;  // Finished / Idle / MaxTime: a real result
        }
        if (r.outcome != EvalOutcome::Ok)
            r.error = design->scheduler().abortReason();
    } catch (const sim::ElabError &e) {
        r.outcome = EvalOutcome::ElabFail;
        r.error = e.what();
    } catch (const sim::SimOom &e) {
        r.outcome = EvalOutcome::Oom;
        r.error = e.what();
    } catch (const sim::SimAbort &e) {
        // A budget/deadline abort thrown outside a process (continuous
        // assignment or function evaluation) unwinds through run();
        // this design's scheduler latch knows which kind fired first.
        // On elab-throw paths no Design (and no latch) exists yet, so
        // classify by the cause carried on the exception instead.
        bool deadline = design && design->scheduler().aborted()
                            ? design->scheduler().abortStatus() ==
                                  SimStatus::Deadline
                            : e.cause == sim::SimAbort::Cause::Deadline;
        r.outcome = deadline ? EvalOutcome::Deadline
                             : EvalOutcome::Runaway;
        r.error = e.what();
    } catch (const std::exception &e) {
        r.outcome = EvalOutcome::Crashed;
        r.error = e.what();
    } catch (...) {
        r.outcome = EvalOutcome::Crashed;
        r.error = "unknown exception";
    }
    if (rec)
        r.trace = rec->takeTrace();
    return r;
}

} // namespace cirfix::core
