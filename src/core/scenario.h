#pragma once

/**
 * @file
 * Defect scenarios (paper Section 4.1).
 *
 * A defect scenario bundles everything one repair trial needs: a
 * circuit design with an expert-transplanted defect, an instrumented
 * testbench, and expected-behavior information recorded from the
 * previously-functioning (golden) version of the design. This module
 * provides the machinery; the concrete 11 projects / 32 defects live
 * in src/benchmarks.
 *
 * Correctness assessment: the paper manually inspects plausible
 * patches and classifies them as correct or merely testbench-adequate
 * (overfitting). We mechanize that with a held-out verification
 * testbench per project: a plausible patch is "correct" iff the
 * patched design also matches golden behavior under stimuli the
 * repair search never saw.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sim/probe.h"

namespace cirfix::core {

/** How the paper's Table 3 reports a defect (for comparison). */
enum class PaperOutcome { Correct, PlausibleOnly, NoRepair };

const char *paperOutcomeName(PaperOutcome o);

/** A benchmark hardware project (paper Table 2 row). */
struct ProjectSpec
{
    std::string name;
    std::string description;
    std::string goldenSource;     //!< correct DUT module(s)
    std::string testbenchSource;  //!< repair testbench
    std::string verifySource;     //!< held-out verification testbench
    std::string dutModule;        //!< module under repair
    std::string tbModule;         //!< testbench top module
    std::string verifyModule;     //!< verification top module

    int projectLoc() const;
    int testbenchLoc() const;
};

/** One textual defect transplant over the golden source. */
struct Rewrite
{
    std::string from;  //!< unique substring of the golden source
    std::string to;    //!< replacement implementing the defect
};

/** A defect scenario (paper Table 3 row). */
struct DefectSpec
{
    std::string id;           //!< e.g. "counter_missing_reset"
    std::string project;      //!< ProjectSpec::name
    std::string description;  //!< Table 3 defect description
    int category = 1;         //!< 1 = easy, 2 = hard
    std::vector<Rewrite> rewrites;
    PaperOutcome paperOutcome = PaperOutcome::Correct;
    double paperTimeSeconds = -1.0;  //!< Table 3 repair time (-1: none)
    /** Module the defect lives in; empty = the project's dutModule. */
    std::string repairModule;
};

/** Apply @p rewrites to @p source; throws if a pattern is missing. */
std::string applyRewrites(const std::string &source,
                          const std::vector<Rewrite> &rewrites);

/** A scenario assembled and ready to repair. */
struct Scenario
{
    const ProjectSpec *project = nullptr;
    const DefectSpec *defect = nullptr;

    /** Faulty DUT + repair testbench, parsed and numbered. */
    std::shared_ptr<const verilog::SourceFile> faulty;
    sim::ProbeConfig probe;
    Trace oracle;  //!< golden behavior under the repair testbench

    /** Held-out data for the correctness check. */
    std::string verifySource;
    std::string verifyModule;
    sim::ProbeConfig verifyProbe;
    Trace verifyOracle;

    /** Build a repair engine for this scenario. */
    RepairEngine makeEngine(const EngineConfig &config) const;

    /**
     * The defect must change externally visible behavior (Section
     * 4.1.3): fitness of the unpatched design against the oracle.
     */
    FitnessResult baselineFitness(const EngineConfig &config) const;
};

/**
 * Assemble a scenario: transplant the defect, record the oracle from
 * the golden design, derive probe configurations.
 *
 * @param limits Simulation bounds used when recording the oracles.
 */
Scenario buildScenario(const ProjectSpec &project,
                       const DefectSpec &defect,
                       const sim::RunLimits &limits = {});

/**
 * Assemble a scenario around an arbitrary faulty DUT source instead of
 * a registered defect transplant (Scenario::defect stays null). This is
 * the entry point for `cirfix witness` and the hardening tests, where
 * the "faulty" design is whatever the caller provides — e.g. a patched
 * design suspected of overfitting.
 */
Scenario buildScenarioFromSources(const ProjectSpec &project,
                                  const std::string &faulty_dut_src,
                                  const sim::RunLimits &limits = {});

/**
 * Apply @p patch to the scenario's faulty design and print only the
 * DUT module(s) — every module not defined by the repair testbench.
 * This is the design text witness generation discriminates against.
 */
std::string patchedDutSource(const Scenario &scenario,
                             const Patch &patch);

/**
 * Simulate the golden project under its repair (or, with
 * @p verify_bench, its verification) testbench and return the recorded
 * oracle trace (also used to sanity-check projects). @p probe_out, when
 * given, receives the probe configuration the trace was recorded with.
 * @throws std::runtime_error when the golden run ends in anything but
 * EvalOutcome::Ok.
 */
Trace recordGoldenTrace(const ProjectSpec &project, bool verify_bench,
                        const sim::RunLimits &limits = {},
                        sim::ProbeConfig *probe_out = nullptr);

/**
 * Correctness check for a plausible patch: re-simulate the patched
 * DUT under the held-out verification testbench and compare against
 * golden behavior. True means the repair generalizes ("correct"),
 * false means it overfits the repair testbench ("plausible only").
 */
bool checkCorrectness(const Scenario &scenario, const Patch &patch,
                      const sim::RunLimits &limits = {});

} // namespace cirfix::core
