#include "core/fitness.h"

#include <algorithm>

namespace cirfix::core {

using sim::Bit;
using sim::LogicVec;

namespace {

/** Score one oracle value against one (already width-matched)
 *  simulation value. */
void
scoreBits(const LogicVec &ov, const LogicVec &sv, double phi,
          FitnessResult &r)
{
    for (int b = 0; b < ov.width(); ++b) {
        Bit o = ov.bit(b), s = sv.bit(b);
        bool o_def = (o == Bit::Zero || o == Bit::One);
        bool s_def = (s == Bit::Zero || s == Bit::One);
        if (o_def && s_def) {
            r.total += 1.0;
            if (o == s) {
                r.sum += 1.0;
                ++r.bitMatches;
            } else {
                r.sum -= 1.0;
                ++r.bitMismatches;
            }
        } else {
            r.total += phi;
            if (o == s) {
                r.sum += phi;
                ++r.unknownMatches;
            } else {
                r.sum -= phi;
                ++r.unknownMismatches;
            }
        }
    }
}

} // namespace

FitnessResult
evaluateFitness(const Trace &sim_result, const Trace &expected,
                const FitnessParams &params)
{
    FitnessResult r;

    // Column mapping oracle var -> simulation var (by name), -1 when
    // absent.
    std::vector<int> sim_col(expected.vars().size(), -1);
    for (size_t i = 0; i < expected.vars().size(); ++i) {
        for (size_t j = 0; j < sim_result.vars().size(); ++j) {
            if (sim_result.vars()[j] == expected.vars()[i]) {
                sim_col[i] = static_cast<int>(j);
                break;
            }
        }
    }

    for (const Trace::Row &orow : expected.rows()) {
        const Trace::Row *srow = sim_result.rowAt(orow.time);
        for (size_t v = 0; v < orow.values.size(); ++v) {
            const LogicVec &ov = orow.values[v];
            // Missing rows/columns read as all-x.
            LogicVec sv = LogicVec::xs(ov.width());
            if (srow && sim_col[v] >= 0 &&
                static_cast<size_t>(sim_col[v]) < srow->values.size())
                sv = srow->values[static_cast<size_t>(sim_col[v])]
                         .resized(ov.width());
            scoreBits(ov, sv, params.phi, r);
        }
    }

    if (r.total > 0)
        r.fitness = std::max(0.0, r.sum) / r.total;
    return r;
}

} // namespace cirfix::core
