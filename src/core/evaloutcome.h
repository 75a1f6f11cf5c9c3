#pragma once

/**
 * @file
 * Unified candidate-evaluation outcome taxonomy.
 *
 * Mutants are adversarial by construction: they wedge FSMs, create
 * zero-delay oscillations, blow up event queues, and can crash the
 * interpreter outright. Every way an evaluation can end is classified
 * here so the engine can degrade each failure to worst fitness,
 * quarantine pathological patch keys, and report aggregate counts per
 * run instead of dying on the first bad candidate (the paper leans on
 * VCS timeouts for the same purpose).
 */

#include <array>
#include <memory>
#include <string>

#include "sim/design.h"
#include "sim/probe.h"

namespace cirfix::core {

enum class EvalOutcome {
    Ok = 0,     //!< simulated and scored normally
    ParseFail,  //!< structurally invalid ("compile error")
    ElabFail,   //!< elaboration rejected the design
    Runaway,    //!< statement/callback budget exhausted
    Deadline,   //!< per-candidate wall-clock watchdog fired
    Oom,        //!< per-candidate memory budget exhausted
    Crashed,    //!< any other exception escaping the evaluation
    LintReject, //!< the static lint pre-screen found a *new*
                //!< error-severity diagnostic relative to the baseline
                //!< design's fingerprint (e.g. a fresh zero-delay
                //!< combinational loop): worst fitness without a
                //!< simulation. Never quarantined and never cached —
                //!< the decision is a pure function of the patch and
                //!< recomputing it is cheaper than a cache slot.
};

inline constexpr int kEvalOutcomeCount = 8;

const char *evalOutcomeName(EvalOutcome o);

/** Parse evalOutcomeName() output; throws std::runtime_error. */
EvalOutcome evalOutcomeFromName(const std::string &name);

/** True for outcomes that get a patch key quarantined for the run. */
inline bool
isQuarantineOutcome(EvalOutcome o)
{
    return o == EvalOutcome::Runaway || o == EvalOutcome::Deadline ||
           o == EvalOutcome::Oom || o == EvalOutcome::Crashed;
}

/** Per-run outcome accounting, surfaced in RepairResult. */
struct OutcomeCounts
{
    std::array<long, kEvalOutcomeCount> counts{};
    /** Evaluations answered from the quarantine list (no simulation). */
    long quarantineHits = 0;

    void add(EvalOutcome o) { ++counts[static_cast<size_t>(o)]; }
    long of(EvalOutcome o) const
    {
        return counts[static_cast<size_t>(o)];
    }

    bool operator==(const OutcomeCounts &) const;

    /** Evaluations that did not end in EvalOutcome::Ok. */
    long failures() const;
    long total() const;

    /** One line: "ok=120 parse-fail=3 ... quarantine-hits=2". */
    std::string summary() const;
};

/** How one guarded simulation ended (see runGuarded). */
struct GuardedRun
{
    EvalOutcome outcome = EvalOutcome::Ok;
    /** The rows recorded before the run ended: all of them on Ok, a
     *  prefix (possibly empty) otherwise. */
    sim::Trace trace;
    std::string error;  //!< why the run failed; empty on Ok
};

/**
 * The one way src/ simulates and records a design: elaborate @p file
 * from @p top under @p guards, record @p probe, run under @p limits,
 * and classify how the run ended. No exception escapes: elaboration
 * errors, memory-budget exhaustion, aborts thrown outside a process and
 * any other exception all become an outcome plus its message, exactly
 * as in-process pathologies (Runaway, Deadline, Crashed) do.
 */
GuardedRun runGuarded(std::shared_ptr<const verilog::SourceFile> file,
                      const std::string &top,
                      const sim::ProbeConfig &probe,
                      const sim::SimGuards &guards,
                      const sim::RunLimits &limits);

} // namespace cirfix::core
