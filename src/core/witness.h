#pragma once

/**
 * @file
 * Witness-driven oracle hardening.
 *
 * A plausible patch that fails the held-out verification bench is
 * overfit (paper Section 6.2): it satisfies the repair testbench
 * without restoring the intended behavior. This module mechanizes the
 * countermeasure the paper leaves to manual inspection — when a patch
 * overfits, search for a short *discriminating* stimulus under which
 * the golden design and the patched design visibly disagree, shrink it
 * with delta debugging to a minimal witness, and install it as an
 * auxiliary oracle bench (OracleBench) the repair engine scores every
 * future candidate against. The overfit patch is thereby demoted (it
 * no longer reaches perfect combined fitness) and the search resumes
 * from its discovery-point snapshot under the hardened oracle.
 *
 * The witness search is coverage-guided random testing: candidate
 * stimuli are random input-step matrices (plus mutations of previously
 * novel ones, where novelty is a fresh fingerprint of the patched
 * design's response trace), each simulated on both designs and scored
 * with the bit-level fitness function. Any imperfect score — or a
 * patched-design simulation pathology under a stimulus the golden
 * design survives — discriminates. Because the installed bench's
 * expected trace is recorded from the golden design itself, a witness
 * can never reject the correct design (golden invariance holds by
 * construction, and test_witness.cc checks it for every generated
 * witness).
 *
 * The search runs single-threaded on one RNG stream, so witnesses are
 * bit-identical per seed at any engine thread count.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/oracle.h"
#include "core/scenario.h"
#include "core/snapshot.h"

namespace cirfix::core {

/** Knobs for the witness search. */
struct WitnessOptions
{
    uint64_t seed = 1;
    /** Candidate stimuli simulated before giving up. */
    int maxTries = 400;
    /** Longest candidate stimulus, in clock cycles (= input steps). */
    int maxCycles = 24;
    /** Simulation bounds for each golden/patched probe run. */
    sim::RunLimits simLimits{100'000, 150'000, 300'000};
    /** Half clock period of the generated bench (posedges at
     *  half, 3*half, ...; inputs step every 2*half). */
    int clockHalfPeriod = 5;
    /** Hardening rounds hardenedRepair() attempts before reporting
     *  the run plausible-but-overfit. */
    int maxRounds = 4;
    /** Fitness parameters used to compare golden vs patched traces. */
    FitnessParams fitness;
};

/** One drivable DUT input (clock excluded). */
struct WitnessInput
{
    std::string name;
    int width = 1;
};

/** What the generated bench drives and observes. */
struct WitnessInterface
{
    std::string dutModule;
    /** DUT clock port; empty when the DUT has none (the bench still
     *  runs an internal sampling clock). */
    std::string clockPort;
    std::vector<WitnessInput> inputs;
    /** Observed ports (outputs and inouts), with resolved widths. */
    std::vector<WitnessInput> outputs;
};

/**
 * A stimulus: one row per clock cycle, one value per WitnessInterface
 * input (row k is applied before posedge k samples the response).
 */
using StepMatrix = std::vector<std::vector<uint64_t>>;

/** Outcome of a witness search. */
struct WitnessSearchResult
{
    bool found = false;
    StepMatrix steps;             //!< minimized discriminating stimulus
    size_t stepsBeforeMin = 0;    //!< stimulus length at discovery
    int tries = 0;                //!< candidate stimuli simulated
    int minimizeTests = 0;        //!< ddmin predicate evaluations
    size_t coveragePool = 0;      //!< novel-response stimuli collected
    /** Installable bench: minimized stimulus testbench + the golden
     *  design's recorded behavior under it. Valid only when found. */
    OracleBench bench;
};

/**
 * Inspect @p dut_module inside @p file: classify ports into clock /
 * drivable inputs (with resolved widths) / observed outputs.
 * @throws std::runtime_error when the module does not exist.
 */
WitnessInterface deriveWitnessInterface(const verilog::SourceFile &file,
                                        const std::string &dut_module);

/**
 * Generate the witness testbench text for @p steps: an internal
 * free-running clock, input assignments stepped every full clock
 * period, DUT instance named "dut", and $finish after the last cycle's
 * sample. Deterministic function of its arguments.
 */
std::string makeWitnessBenchSource(const WitnessInterface &iface,
                                   const StepMatrix &steps,
                                   const std::string &tb_module,
                                   int clock_half_period);

/** Probe configuration matching makeWitnessBenchSource() output. */
sim::ProbeConfig witnessProbe(const WitnessInterface &iface);

/**
 * Simulate @p dut_src under @p bench through runGuarded (no memory
 * budget): the outcome, the recorded (on a pathology, partial) trace
 * and the error, classified exactly as candidate evaluation classifies
 * them. @throws when the sources do not parse.
 */
GuardedRun runWitnessBench(const std::string &dut_src,
                           const OracleBench &bench,
                           const sim::RunLimits &limits = {});

/**
 * Delta-debugging minimization of a discriminating stimulus: greedily
 * remove chunks of steps (halving chunk size down to single rows) while
 * @p discriminates stays true, then sweep to a 1-minimal result —
 * removing any single remaining row breaks discrimination. Idempotent.
 * @p tests_out (optional) counts predicate evaluations.
 */
StepMatrix minimizeWitnessSteps(
    const StepMatrix &steps,
    const std::function<bool(const StepMatrix &)> &discriminates,
    int *tests_out = nullptr);

/**
 * Search for a minimal stimulus under which @p patched_dut_src and
 * @p golden_dut_src disagree on some sampled output. On success the
 * returned bench carries the minimized testbench and the golden
 * design's trace under it, ready for EngineConfig::witnessBenches.
 */
WitnessSearchResult findWitness(const std::string &golden_dut_src,
                                const std::string &patched_dut_src,
                                const std::string &dut_module,
                                const WitnessOptions &opts,
                                const std::string &tb_module,
                                const std::string &provenance);

/**
 * Migrate a snapshot to @p engine's witness set: install the engine's
 * benches as the snapshot's oracle provenance, drop the (stale) fitness
 * cache, re-score every population member under the hardened oracle,
 * and recompute bestSeen over the re-scored population. Counters,
 * RNG stream, trajectory and quarantine are preserved — the resumed
 * search continues deterministically from the same decision point,
 * just with the demoted patches scored honestly.
 */
void rehardenSnapshot(const RepairEngine &engine, EngineState &state);

/** Outcome of a hardened repair run. */
struct HardenedRepairResult
{
    RepairResult result;       //!< final round's repair result
    bool correct = false;      //!< final patch passed the held-out bench
    int rounds = 0;            //!< repair rounds executed (>= 1)
    int overfitKills = 0;      //!< overfit patches demoted by a witness
    int resumedFromSnapshot = 0;  //!< rounds continued from a snapshot
    int witnessTries = 0;      //!< candidate stimuli across all searches
    std::vector<OracleBench> witnesses;  //!< benches installed, in order
};

/**
 * The hardened repair loop: run the engine; when the winner fails the
 * held-out verification bench, find a witness against it, install the
 * bench, and resume from the discovery-point snapshot (requires
 * config.snapshotPath; with an empty path each round restarts from
 * scratch instead). Stops on a correct repair, a round with no repair,
 * a failed witness search, or WitnessOptions::maxRounds exhaustion.
 */
HardenedRepairResult hardenedRepair(const Scenario &scenario,
                                    const EngineConfig &config,
                                    const WitnessOptions &opts);

} // namespace cirfix::core
