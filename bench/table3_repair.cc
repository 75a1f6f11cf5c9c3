/**
 * @file
 * Regenerates Table 3: repair results for all 32 defect scenarios.
 *
 * Protocol (Section 4.2, scaled): up to CIRFIX_TRIALS independent
 * seeded trials per scenario, each bounded by CIRFIX_GENS generations
 * and CIRFIX_BUDGET seconds, stopping at the first acceptable repair;
 * found repairs are classified correct vs plausible-only via the
 * held-out verification testbench. The paper's outcome for each row is
 * printed alongside for comparison.
 */

#include "common.h"

int
main()
{
    using namespace cirfix;
    using namespace cirfix::bench;

    core::EngineConfig cfg = defaultConfig();
    int trials = defaultTrials();

    std::printf("Table 3: Repair results for CirFix "
                "(pop=%d, gens<=%d, budget=%.0fs, trials=%d)\n",
                cfg.popSize, cfg.maxGenerations, cfg.maxSeconds,
                trials);
    printRule('=', 118);
    std::printf("%-22s %-46s %3s | %-14s %9s | %-14s %9s %6s\n",
                "Project", "Defect", "Cat", "Paper", "Paper t(s)",
                "Ours", "Ours t(s)", "Evals");
    printRule('-', 118);

    int plausible = 0, correct = 0;
    int cat1_total = 0, cat1_plausible = 0;
    int cat2_total = 0, cat2_plausible = 0;
    int agree_repaired = 0;
    int timed_out = 0;

    for (const core::DefectSpec &d : allDefects()) {
        ScenarioOutcome out = runScenario(d, cfg, trials);
        plausible += out.plausible;
        correct += out.correct;
        timed_out += !out.plausible && out.timedOut;
        (d.category == 1 ? cat1_total : cat2_total)++;
        if (out.plausible)
            (d.category == 1 ? cat1_plausible : cat2_plausible)++;
        bool paper_repaired =
            d.paperOutcome != core::PaperOutcome::NoRepair;
        if (paper_repaired == out.plausible)
            ++agree_repaired;

        char paper_time[16] = "-";
        if (d.paperTimeSeconds >= 0)
            std::snprintf(paper_time, sizeof(paper_time), "%.1f",
                          d.paperTimeSeconds);
        char our_time[16] = "-";
        if (out.plausible)
            std::snprintf(our_time, sizeof(our_time), "%.2f",
                          out.repairSeconds);

        std::printf("%-22s %-46s %3d | %-14s %9s | %-14s %9s %6ld\n",
                    d.project.c_str(),
                    d.description.substr(0, 46).c_str(), d.category,
                    core::paperOutcomeName(d.paperOutcome), paper_time,
                    outcomeName(out), our_time,
                    out.plausible ? out.fitnessEvals : out.totalEvals);
        std::fflush(stdout);
    }

    printRule('-', 118);
    std::printf("\nSummary (paper -> ours):\n");
    std::printf("  plausible repairs : 21/32 -> %d/32\n", plausible);
    std::printf("  correct repairs   : 16/32 -> %d/32\n", correct);
    std::printf("  category 1        : 12/19 -> %d/%d\n",
                cat1_plausible, cat1_total);
    std::printf("  category 2        :  9/13 -> %d/%d\n",
                cat2_plausible, cat2_total);
    std::printf("  per-row repaired/not-repaired agreement with "
                "Table 3: %d/32\n",
                agree_repaired);
    if (timed_out > 0)
        std::printf("  WARNING: %d row(s) timed out before their last "
                    "generation; raise CIRFIX_BUDGET\n",
                    timed_out);
    return 0;
}
