#pragma once

/**
 * @file
 * The fixed experiment protocol (paper Section 4.2, scaled) and the
 * trial loop every experiment runs through: up to kTrials independent
 * seeded searches per scenario, stopping at the first acceptable
 * repair, each bounded by kPopSize x kMaxGenerations. The protocol has
 * no knobs: a result is its configuration.
 *
 * kSafetyNetSeconds is never a budget. A trial the clock ends before
 * its last generation, without a repair, makes its scenario report
 * timed-out, not "no repair".
 *
 * Also the Table 3 block that `experiments table3` prints and
 * EXPERIMENTS.md records, so tests/test_paper.cc can compare the two.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/registry.h"
#include "core/scenario.h"

namespace cirfix::bench {

inline constexpr int kTrials = 3;
inline constexpr int kPopSize = 500;
inline constexpr int kMaxGenerations = 20;
inline constexpr uint64_t kSeed0 = 1000;  //!< trial t: trialSeed(kSeed0, t)
inline constexpr double kSafetyNetSeconds = 600;

inline core::EngineConfig
protocolConfig()
{
    core::EngineConfig cfg;
    cfg.popSize = kPopSize;
    cfg.maxGenerations = kMaxGenerations;
    cfg.maxSeconds = kSafetyNetSeconds;
    return cfg;
}

/** Aggregated outcome of the trial protocol for one scenario. */
struct ScenarioOutcome
{
    const core::DefectSpec *defect = nullptr;
    bool plausible = false;   //!< some trial found a repair
    bool correct = false;     //!< some trial's repair passed held-out
    /** A trial ran into kSafetyNetSeconds before its last generation
     *  without finding a repair. */
    bool timedOut = false;
    int trialsRun = 0;
    long totalEvals = 0;      //!< probes across all executed trials
    double totalSeconds = 0;
    // The winning (first successful) trial:
    uint64_t seed = 0;
    double repairSeconds = 0;
    long fitnessEvals = 0;
    core::Patch patch;        //!< minimized
    std::string repairedSource;
    std::vector<std::pair<long, double>> fitnessTrajectory;
};

/**
 * The protocol for one scenario: up to kTrials seeded runs under
 * @p base_cfg, stopping at the first acceptable repair, which is then
 * checked against the held-out verification bench.
 */
inline ScenarioOutcome
runScenario(const core::DefectSpec &defect,
            const core::EngineConfig &base_cfg,
            const core::Trace *oracle_override = nullptr)
{
    ScenarioOutcome out;
    out.defect = &defect;
    core::Scenario sc =
        core::buildScenario(getProject(defect.project), defect);
    if (oracle_override)
        sc.oracle = *oracle_override;  // the held-out oracle stays

    for (int trial = 0; trial < kTrials; ++trial) {
        core::EngineConfig cfg = base_cfg;
        cfg.seed = core::trialSeed(kSeed0, trial);
        ++out.trialsRun;
        core::RepairResult res = sc.makeEngine(cfg).run();
        out.totalEvals += res.fitnessEvals;
        out.totalSeconds += res.seconds;
        if (!res.found && !res.stopped &&
            res.generations < cfg.maxGenerations)
            out.timedOut = true;
        if (res.found) {
            out.plausible = true;
            out.seed = cfg.seed;
            out.repairSeconds = res.seconds;
            out.fitnessEvals = res.fitnessEvals;
            out.patch = res.patch;
            out.repairedSource = res.repairedSource;
            out.fitnessTrajectory = res.fitnessTrajectory;
            out.correct = core::checkCorrectness(sc, res.patch);
            break;
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

/** Probes of the winning trial, or of every trial when none won. */
inline long
outcomeEvals(const ScenarioOutcome &o)
{
    return o.plausible ? o.fitnessEvals : o.totalEvals;
}

inline std::string
rule(char c, int n)
{
    return std::string(static_cast<size_t>(n), c) + "\n";
}

inline void
printRule(char c = '-', int n = 98)
{
    std::fputs(rule(c, n).c_str(), stdout);
}

template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

// ---- Table 3: deterministic columns only ----

inline constexpr int kTable3Width = 108;

inline std::string
table3Header()
{
    return format("Table 3: Repair results for CirFix (pop=%d, "
                  "gens<=%d, trials=%d, seeds trialSeed(%d, t))\n",
                  kPopSize, kMaxGenerations, kTrials,
                  static_cast<int>(kSeed0)) +
           rule('=', kTable3Width) +
           format("%-22s %-46s %3s | %-14s | %-14s %5s %6s\n",
                  "Project", "Defect", "Cat", "Paper", "Ours", "Edits",
                  "Evals") +
           rule('-', kTable3Width);
}

inline std::string
table3Row(const ScenarioOutcome &o)
{
    const core::DefectSpec &d = *o.defect;
    return format("%-22s %-46s %3d | %-14s | %-14s %5zu %6ld\n",
                  d.project.c_str(), d.description.substr(0, 46).c_str(),
                  d.category, core::paperOutcomeName(d.paperOutcome),
                  outcomeName(o), o.patch.size(), outcomeEvals(o));
}

inline std::string
table3Summary(const std::vector<ScenarioOutcome> &outcomes)
{
    int plausible = 0, correct = 0, agree = 0, timed_out = 0;
    int total[3] = {0, 0, 0}, repaired[3] = {0, 0, 0};
    for (const ScenarioOutcome &o : outcomes) {
        const core::DefectSpec &d = *o.defect;
        plausible += o.plausible;
        correct += o.correct;
        timed_out += !o.plausible && o.timedOut;
        ++total[d.category];
        repaired[d.category] += o.plausible;
        agree += (d.paperOutcome != core::PaperOutcome::NoRepair) ==
                 o.plausible;
    }
    int n = static_cast<int>(outcomes.size());
    std::string s = rule('-', kTable3Width) + "\nSummary (paper -> ours):\n";
    s += format("  plausible repairs : 21/32 -> %d/%d\n", plausible, n);
    s += format("  correct repairs   : 16/32 -> %d/%d\n", correct, n);
    s += format("  category 1        : 12/19 -> %d/%d\n", repaired[1],
                total[1]);
    s += format("  category 2        :  9/13 -> %d/%d\n", repaired[2],
                total[2]);
    s += format("  per-row repaired/not-repaired agreement with "
                "Table 3: %d/%d\n",
                agree, n);
    if (timed_out > 0)
        s += format("  WARNING: %d row(s) hit the %.0f s safety net "
                    "before their last generation\n",
                    timed_out, kSafetyNetSeconds);
    return s;
}

} // namespace cirfix::bench
