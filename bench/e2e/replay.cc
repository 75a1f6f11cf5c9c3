#include <optional>
#include <random>

#include "core/faultloc.h"
#include "core/fitness.h"
#include "core/mutation.h"
#include "core/patch.h"
#include "e2e_bench.h"
#include "lint/lint.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/validate.h"

namespace cirfix::e2e {

namespace {

using sim::Scheduler;

/** Times consecutive stages of one candidate as child spans. */
class StageClock
{
  public:
    StageClock(Tracer &tracer, long parent)
        : tracer_(tracer), parent_(parent), last_(Clock::now())
    {}

    void
    mark(const char *name)
    {
        Clock::time_point now = Clock::now();
        tracer_.add(Span{name, last_, now, 0, parent_, 0, {}});
        last_ = now;
    }

  private:
    Tracer &tracer_;
    long parent_;
    Clock::time_point last_;
};

/** The engine's evaluation layers, one public call each. Returns the
 *  trace of a candidate that simulated to a result. */
std::optional<sim::Trace>
evaluateCandidate(const core::Scenario &sc, const core::EngineConfig &cfg,
                  const std::string &dutModule,
                  const lint::Fingerprint &baseline,
                  const core::Patch &patch, Tracer &tracer, long parent)
{
    const long id = tracer.newId();
    const Clock::time_point t0 = Clock::now();
    const char *outcome = "ok";
    std::optional<sim::Trace> result;
    StageClock stage(tracer, id);

    std::shared_ptr<verilog::SourceFile> patched =
        core::applyPatch(*sc.faulty, patch);
    stage.mark("patch.apply");
    const bool valid = verilog::isValid(*patched);
    stage.mark("verilog.validate");
    if (!valid) {
        outcome = "invalid";
    } else {
        long fresh = cfg.lintPrescreen
                         ? lint::newErrorCount(
                               baseline, lint::run(*patched,
                                                   cfg.lintOptions))
                         : 0;
        stage.mark("lint.prescreen");
        if (fresh > 0) {
            outcome = "lint_reject";
        } else {
            try {
                sim::SimGuards guards;
                guards.memBudgetBytes = cfg.evalMemoryBudget;
                guards.backend = cfg.backend;
                auto design = sim::elaborate(
                    std::shared_ptr<const verilog::SourceFile>(patched),
                    sc.project->tbModule, guards);
                stage.mark("sim.elaborate");
                sim::TraceRecorder rec(*design, sc.probe);
                sim::RunLimits limits = cfg.simLimits;
                if (limits.maxWallSeconds <= 0)
                    limits.maxWallSeconds = cfg.evalDeadlineSeconds;
                Scheduler::Status st = design->run(limits).status;
                stage.mark("sim.run");
                if (st == Scheduler::Status::Runaway ||
                    st == Scheduler::Status::Deadline ||
                    st == Scheduler::Status::Crashed) {
                    outcome = "sim_fail";
                } else {
                    sim::Trace trace = rec.takeTrace();
                    core::evaluateFitness(trace, sc.oracle, cfg.fitness);
                    stage.mark("fitness.score");
                    result = std::move(trace);
                }
            } catch (const std::exception &) {
                outcome = "sim_fail";
            }
        }
    }
    tracer.add(Span{"candidate", t0, Clock::now(), id, parent, 0,
                    {{outcome, 1}}});
    // Planning cost of this candidate as a parent: the engine re-runs
    // fault localization on every tournament winner.
    if (result) {
        if (const verilog::Module *dut = patched->findModule(dutModule)) {
            StageClock plan(tracer, parent);
            core::faultLocalize(*dut, *result, sc.oracle);
            plan.mark("faultloc.localize");
        }
    }
    return result;
}

} // namespace

void
replayCandidates(const core::Scenario &sc, const core::EngineConfig &cfg,
                 Tracer &tracer, long parent)
{
    const std::string &dutModule =
        sc.defect && !sc.defect->repairModule.empty()
            ? sc.defect->repairModule
            : sc.project->dutModule;
    lint::Fingerprint baseline =
        lint::fingerprint(lint::run(*sc.faulty, cfg.lintOptions));

    std::optional<sim::Trace> original = evaluateCandidate(
        sc, cfg, dutModule, baseline, core::Patch{}, tracer, parent);
    auto ast0 = core::applyPatch(*sc.faulty, core::Patch{});
    const verilog::Module *dut0 = ast0->findModule(dutModule);
    if (!dut0)
        return;
    core::FaultLocResult fl = core::faultLocalize(
        *dut0, original ? *original : sim::Trace{}, sc.oracle);

    Clock::time_point t;
    std::mt19937_64 rng(cfg.seed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    core::Mutator mutator(rng, cfg.mutation);
    for (int i = 1; i < cfg.popSize; ++i) {
        t = Clock::now();
        std::optional<core::Edit> e =
            uniform(rng) <= cfg.rtThreshold
                ? mutator.templateEdit(*ast0, *dut0, fl.nodeIds)
                : mutator.mutate(*ast0, *dut0, fl.nodeIds);
        tracer.add(Span{"mutation.propose", t, Clock::now(), 0, parent, 0,
                        {}});
        core::Patch p;
        if (e)
            p.edits.push_back(std::move(*e));
        evaluateCandidate(sc, cfg, dutModule, baseline, p, tracer, parent);
    }
}

} // namespace cirfix::e2e
