/**
 * @file
 * Search outcomes pinned across commits.
 *
 * The determinism tests elsewhere compare runs of one binary against
 * each other, so a change that reorders the engine's RNG draws (say, in
 * how parents are planned) would still pass them. These cases instead
 * assert recorded outcomes of fixed-seed searches: found, generations,
 * fitness evaluations, mutants, and hashes of the repaired source and
 * of the best-fitness trajectory. A change that is meant to alter the
 * search must re-record them and say why.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "benchmarks/registry.h"
#include "core/scenario.h"

using namespace cirfix;
using namespace cirfix::core;

namespace {

/** 64-bit FNV-1a. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a of the best-fitness trajectory, doubles printed exactly. */
uint64_t
trajectoryHash(const std::vector<std::pair<long, double>> &trajectory)
{
    std::string text;
    char buf[64];
    for (const auto &[evals, fitness] : trajectory) {
        std::snprintf(buf, sizeof buf, "%ld:%.17g;", evals, fitness);
        text += buf;
    }
    return fnv1a(text);
}

struct Pin
{
    const char *defect;
    int popSize;
    int maxGenerations;
    bool relocalize;
    // Recorded outcome (counter and fsm are repaired with relocalize
    // on; sha3_negation is not repaired within its two generations).
    bool found;
    int generations;
    long fitnessEvals;
    long totalMutants;
    uint64_t sourceHash;
    uint64_t trajectoryHash;
};

void
PrintTo(const Pin &p, std::ostream *os)
{
    *os << p.defect << (p.relocalize ? "/relocalize" : "/static-fl");
}

class PinnedSearch : public ::testing::TestWithParam<Pin>
{};

TEST_P(PinnedSearch, OutcomeMatchesRecordingAtOneAndFourThreads)
{
    const Pin &pin = GetParam();
    const DefectSpec &d = bench::getDefect(pin.defect);
    Scenario sc = buildScenario(bench::getProject(d.project), d);
    for (int threads : {1, 4}) {
        EngineConfig cfg;
        cfg.popSize = pin.popSize;
        cfg.maxGenerations = pin.maxGenerations;
        cfg.maxSeconds = 600.0;  // never the binding budget
        cfg.seed = 20261017;
        cfg.relocalize = pin.relocalize;
        cfg.numThreads = threads;
        RepairResult r = sc.makeEngine(cfg).run();
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(r.found, pin.found);
        EXPECT_EQ(r.generations, pin.generations);
        EXPECT_EQ(r.fitnessEvals, pin.fitnessEvals);
        EXPECT_EQ(r.totalMutants, pin.totalMutants);
        EXPECT_EQ(fnv1a(r.repairedSource), pin.sourceHash);
        EXPECT_EQ(trajectoryHash(r.fitnessTrajectory),
                  pin.trajectoryHash);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, PinnedSearch,
    ::testing::Values(
        Pin{"counter_incorrect_reset", 100, 12, true,
            true, 4, 374, 500,
            17905904710293205844ull, 2638223915906681656ull},
        Pin{"counter_incorrect_reset", 100, 12, false,
            false, 12, 1024, 1304,
            1469598103934665603ull, 2837740436562855625ull},
        Pin{"fsm_case_statement", 60, 8, true,
            true, 8, 455, 544,
            6792541796126294934ull, 17586286732670425913ull},
        Pin{"fsm_case_statement", 60, 8, false,
            false, 8, 422, 544,
            1469598103934665603ull, 7271045750927031420ull},
        Pin{"sha3_negation", 100, 2, true,
            false, 2, 231, 300,
            1469598103934665603ull, 5496767892832203877ull},
        Pin{"sha3_negation", 100, 2, false,
            false, 2, 221, 300,
            1469598103934665603ull, 11304303217268965181ull}));

} // namespace
