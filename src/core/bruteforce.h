#pragma once

/**
 * @file
 * Brute-force repair baseline (paper Section 5.1, RQ1).
 *
 * The paper compares CirFix against "a more straightforward search
 * algorithm applying edits at uniform to a circuit design": no fault
 * localization to narrow the target set, no fitness function to rank
 * partial progress — just enumerate single edits in random order and
 * check each candidate against the testbench until one is plausible
 * or the budget runs out.
 */

#include "core/engine.h"

namespace cirfix::core {

struct BruteForceResult
{
    bool found = false;
    Patch patch;
    long candidatesTried = 0;
    double seconds = 0.0;
};

/**
 * Enumerate uniform single edits (every template at every site, every
 * statement deletion, and random replace/insert pairs) in shuffled
 * order and evaluate each with @p engine until a plausible repair
 * appears or @p max_candidates have been evaluated.
 */
BruteForceResult bruteForceRepair(RepairEngine &engine,
                                  const verilog::SourceFile &faulty,
                                  const std::string &dut_module,
                                  long max_candidates, uint64_t seed);

} // namespace cirfix::core
