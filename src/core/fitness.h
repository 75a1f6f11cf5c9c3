#pragma once

/**
 * @file
 * The CirFix fitness function (paper Section 3.2).
 *
 * Given a simulation result S and expected output O — both traces
 * Time -> Var -> {0,1,x,z}* recorded by the instrumented testbench —
 * every bit of every variable at every oracle timestamp contributes to
 * a fitness sum:
 *
 *     +1    when both bits are the same defined value (0/0 or 1/1)
 *     +phi  when both bits are the same undefined value (x/x or z/z)
 *     -1    when both bits are defined but differ (0/1 or 1/0)
 *     -phi  when exactly one side is x/z (or x vs z)
 *
 * and the total possible fitness counts +1 for defined pairs and +phi
 * for pairs involving x/z. The normalized fitness is
 * max(0, sum) / total, so 1.0 means a plausible (testbench-adequate)
 * repair. phi > 1 makes ill-defined wires extra detrimental
 * (Section 4.2 uses phi = 2).
 */

#include <cstdint>

#include "sim/trace.h"

namespace cirfix::core {

using sim::Trace;

struct FitnessParams
{
    /** Extra weight for comparisons involving x/z bits. */
    double phi = 2.0;
};

struct FitnessResult
{
    double fitness = 0.0;  //!< normalized, in [0, 1]
    double sum = 0.0;      //!< raw fitness sum (can be negative)
    double total = 0.0;    //!< maximum achievable sum

    uint64_t bitMatches = 0;      //!< defined-value matches
    uint64_t bitMismatches = 0;   //!< defined-value mismatches
    uint64_t unknownMatches = 0;  //!< x/x or z/z pairs
    uint64_t unknownMismatches = 0;  //!< pairs with exactly one x/z side

    /** True when every compared bit agreed (testbench-adequate). */
    bool
    plausible() const
    {
        return total > 0 && sum >= total - 1e-9;
    }
};

/**
 * Compare a simulation result against the expected-behavior oracle.
 *
 * Variables are matched by name; oracle rows with no matching
 * simulation row (e.g., the candidate crashed or finished early) read
 * as all-x, which the -phi case penalizes. Simulation rows or
 * variables absent from the oracle are ignored (the developer chose
 * not to annotate them; see paper Section 5.4).
 */
FitnessResult evaluateFitness(const Trace &sim_result,
                              const Trace &expected,
                              const FitnessParams &params = {});

} // namespace cirfix::core
