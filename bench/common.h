#pragma once

/**
 * @file
 * Shared harness for the experiment binaries: scaled GP configuration
 * (overridable via environment variables), the multi-trial protocol of
 * Section 4.2 (independent seeded trials per scenario, stopping at the
 * first acceptable repair), and table formatting helpers.
 *
 * Environment knobs:
 *   CIRFIX_TRIALS  trials per scenario            (default 3)
 *   CIRFIX_POP     GP population size             (default 500)
 *   CIRFIX_GENS    max generations per trial      (default 20)
 *   CIRFIX_BUDGET  wall-clock seconds per trial   (default 8)
 *
 * A trial the wall clock ends before its last generation, without a
 * repair, is not a "no repair": its scenario reports timed-out.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "core/scenario.h"

namespace cirfix::bench {

inline long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    return v ? std::atol(v) : fallback;
}

inline core::EngineConfig
defaultConfig()
{
    core::EngineConfig cfg;
    cfg.popSize = static_cast<int>(envLong("CIRFIX_POP", 500));
    cfg.maxGenerations = static_cast<int>(envLong("CIRFIX_GENS", 20));
    cfg.maxSeconds =
        static_cast<double>(envLong("CIRFIX_BUDGET", 8));
    return cfg;
}

inline int
defaultTrials()
{
    return static_cast<int>(envLong("CIRFIX_TRIALS", 3));
}

/** Aggregated outcome of the trial protocol for one scenario. */
struct ScenarioOutcome
{
    const core::DefectSpec *defect = nullptr;
    bool plausible = false;   //!< some trial found a repair
    bool correct = false;     //!< some trial's repair passed held-out
    double repairSeconds = 0; //!< time of the first successful trial
    long fitnessEvals = 0;    //!< probes of the first successful trial
    long totalEvals = 0;      //!< probes across all executed trials
    int trialsRun = 0;
    /** Some trial ran out of CIRFIX_BUDGET seconds before its last
     *  generation without finding a repair: the outcome depends on
     *  the host's speed. */
    bool timedOut = false;
    int editCount = 0;        //!< minimized patch size (when found)
    double totalSeconds = 0;
    core::Patch patch;        //!< first successful (minimized) patch
    std::string repairedSource;
};

/**
 * The paper's protocol: up to @p trials independent seeded runs,
 * stopping at the first acceptable repair; a found repair is then
 * checked against the held-out verification bench.
 */
inline ScenarioOutcome
runScenario(const core::DefectSpec &defect,
            const core::EngineConfig &base_cfg, int trials,
            const core::Trace *oracle_override = nullptr)
{
    ScenarioOutcome out;
    out.defect = &defect;
    const core::ProjectSpec &project =
        bench::getProject(defect.project);
    core::Scenario sc = core::buildScenario(project, defect);

    for (int trial = 0; trial < trials; ++trial) {
        core::EngineConfig cfg = base_cfg;
        cfg.seed = 1000 + static_cast<uint64_t>(trial) * 7919;
        ++out.trialsRun;
        core::RepairResult res;
        if (oracle_override) {
            const std::string &dut =
                defect.repairModule.empty() ? project.dutModule
                                            : defect.repairModule;
            core::RepairEngine engine(sc.faulty, project.tbModule, dut,
                                      sc.probe, *oracle_override, cfg);
            res = engine.run();
        } else {
            core::RepairEngine engine = sc.makeEngine(cfg);
            res = engine.run();
        }
        out.totalEvals += res.fitnessEvals;
        out.totalSeconds += res.seconds;
        if (!res.found && !res.stopped &&
            res.generations < cfg.maxGenerations)
            out.timedOut = true;
        if (res.found) {
            out.plausible = true;
            out.repairSeconds = res.seconds;
            out.fitnessEvals = res.fitnessEvals;
            out.editCount = static_cast<int>(res.patch.size());
            out.patch = res.patch;
            out.repairedSource = res.repairedSource;
            out.correct = core::checkCorrectness(sc, res.patch);
            break;  // stop at the first acceptable repair
        }
    }
    return out;
}

inline const char *
outcomeName(const ScenarioOutcome &o)
{
    if (!o.plausible)
        return o.timedOut ? "timed-out" : "no-repair";
    return o.correct ? "correct" : "plausible-only";
}

inline void
printRule(char c = '-', int n = 98)
{
    for (int i = 0; i < n; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace cirfix::bench
