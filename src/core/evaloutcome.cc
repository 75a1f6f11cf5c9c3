#include "core/evaloutcome.h"

#include <sstream>
#include <stdexcept>

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
      case EvalOutcome::EarlyAbort: return "early-abort";
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

} // namespace cirfix::core
