#pragma once

/**
 * @file
 * The main CirFix repair loop (paper Algorithm 1).
 *
 * Genetic programming over repair patches: maintain a population of
 * program variants (edit lists over the faulty design's numbered AST);
 * each generation, tournament-select parents, re-run fault
 * localization on each parent (supporting dependent multi-edit
 * repairs), and produce children via repair templates (probability
 * rtThreshold), mutation (mutThreshold of the remainder) or single-
 * point crossover. Candidates are scored by the hardware fitness
 * function against the expected-behavior oracle; a candidate with
 * fitness 1.0 is a plausible repair, which is then minimized with
 * delta debugging before being reported.
 */

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaloutcome.h"
#include "core/evalpool.h"
#include "lint/lint.h"
#include "core/faultloc.h"
#include "core/fitness.h"
#include "core/minimize.h"
#include "core/mutation.h"
#include "core/oracle.h"
#include "core/patch.h"
#include "sim/design.h"
#include "sim/probe.h"

namespace cirfix::core {

struct EngineState;

/** One population member. */
struct Variant
{
    Patch patch;
    FitnessResult fit;
    sim::Trace trace;     //!< instrumented-testbench output (cached)
    bool valid = false;   //!< structurally valid ("compiles")
    bool evaluated = false;
    /** How the evaluation ended; anything but Ok means worst fitness. */
    EvalOutcome outcome = EvalOutcome::Ok;
    /** Diagnostic message for non-Ok outcomes. */
    std::string error;
};

/** Why a quarantined patch key is never re-simulated. */
struct QuarantineEntry
{
    EvalOutcome outcome = EvalOutcome::Crashed;
    std::string error;
};

/** One migration epoch's imported-migrant record (island runs): which
 *  patch keys this island injected at that epoch's generation
 *  boundary. Snapshotted (v8) so a resumed island's replayed exchange
 *  can be checked against the ledger's sealed broadcasts. */
struct MigrantRecord
{
    int epoch = 0;
    std::vector<std::string> keys;
};

/** GP and resource parameters (paper Section 4.2 defaults, scaled). */
struct EngineConfig
{
    int popSize = 40;
    int maxGenerations = 8;
    double rtThreshold = 0.2;   //!< repair-template probability
    double mutThreshold = 0.7;  //!< mutation (vs crossover) probability
    MutationConfig mutation;    //!< delete/insert/replace = .3/.3/.4
    int tournamentSize = 5;
    double elitism = 0.05;      //!< top fraction carried over unchanged
    FitnessParams fitness;      //!< phi = 2
    uint64_t seed = 1;
    double maxSeconds = 60.0;   //!< wall-clock bound for the trial
    sim::RunLimits simLimits{100'000, 150'000, 300'000};
    /** Re-run fault localization for every parent (paper behavior);
     *  false computes it once on the original (ablation). */
    bool relocalize = true;
    /**
     * Candidate evaluations run concurrently on this many threads
     * (<= 0 selects std::thread::hardware_concurrency()). The repair
     * search is deterministic per seed at ANY thread count: all
     * stochastic decisions are drawn on the main thread before
     * fan-out and results merge in child order (see DESIGN.md,
     * "Parallel evaluation").
     */
    int numThreads = 0;
    /**
     * Wall-clock deadline per candidate evaluation in seconds, layered
     * on the statement/callback budgets (0 disables). Reaps candidates
     * that burn real time without burning budget — the analogue of the
     * VCS timeout the paper's pipeline relies on. Generous by default
     * so slow sanitizer builds never trip it on honest candidates.
     */
    double evalDeadlineSeconds = 30.0;
    /** Per-evaluation memory budget in bytes, charged in sim::Design
     *  signal/memory/event allocation (0 = unlimited). */
    uint64_t evalMemoryBudget = 64ull << 20;
    /** Fault plan compiled into every candidate simulation; used by
     *  the fault-injection tests, all-zero (inert) in production. */
    sim::FaultPlan faultPlan;
    /**
     * Static lint pre-screen: after a mutant passes validation but
     * before any simulation, lint it and compare its error-severity
     * fingerprint against the baseline (faulty) design's. A candidate
     * with a *new* error — a fresh zero-delay combinational loop, a
     * fresh multiply-driven net — is assigned worst fitness with
     * EvalOutcome::LintReject and never simulated. Pre-existing warts
     * of the defective design never reject anything (the diff is
     * against the baseline fingerprint, not zero). The decision is a
     * pure function of the patch, so results stay bit-identical per
     * seed at any thread count.
     */
    bool lintPrescreen = true;
    /** Severity overrides / waivers applied by the pre-screen. */
    lint::Options lintOptions;
    /** Unread; kept for bench/e2e/replay.cc (see sim::SimBackend). */
    sim::SimBackend backend = sim::SimBackend::Event;
    /** Snapshot file path; non-empty checkpoints every generation. */
    std::string snapshotPath;
    /** Recorded as EngineState::provenance in every checkpoint (fleet
     *  worker name); informational only — never affects the search. */
    std::string snapshotProvenance;
    /**
     * Also snapshot the search state the moment a plausible winner is
     * found (before minimization). Off by default: generation-boundary
     * snapshots keep their bit-identical-resume contract. The hardened
     * repair loop (witness.h) turns this on so that, when the winner
     * turns out to overfit the held-out bench, the run can resume from
     * the exact discovery point — RNG stream, population, quarantine
     * and counters intact — under the hardened oracle.
     */
    bool snapshotOnWin = false;
    /**
     * Auxiliary witness benches (see witness.h). Every candidate that
     * passes the main-bench simulation is also simulated under each of
     * these, and the per-bench fitness results fold into one combined
     * score (combineFitness) — so plausibility requires matching the
     * main oracle AND every witness.
     */
    std::vector<OracleBench> witnessBenches;
    /**
     * Optional progress hook, called after each generation with a
     * GenerationStats snapshot (the artifact's repair_logs analogue).
     * Fired after the generation's checkpoint is durable, so a
     * subscriber never observes progress that a crash could lose.
     */
    std::function<void(const struct GenerationStats &)> onGeneration;
    /**
     * Cooperative cancellation: polled at generation boundaries and
     * between planning steps inside a generation. Returning true ends
     * the run with RepairResult::stopped set (no repair, counters
     * reflect work actually done). The repair service uses this for
     * client-initiated cancel; nullptr means never stop early.
     */
    std::function<bool()> shouldStop;

    // ---------------- island-model evolution (see island.h) ----------
    /** Generations per migration epoch; 0 disables migration epochs.
     *  When > 0 and onMigration is set, the engine fires the hook at
     *  every generation boundary that completes an epoch. */
    int migrationInterval = 0;
    /** This run's island id within a K-island job (-1: not an island
     *  run). Recorded in every snapshot (v8) and validated on resume —
     *  an island-2 snapshot never silently resumes as island 0. */
    int islandIndex = -1;
    /** Total islands K of the job this run belongs to (0: plain run). */
    int islandCount = 0;
    /**
     * Migration hook, fired on the main thread at each epoch boundary
     * (after the elitism merge, before the boundary snapshot) with the
     * 1-based epoch and the truncated population. Returns the migrant
     * set to inject; injection touches no RNG state, so the island's
     * own stochastic stream is independent of what (or when) the hook
     * answers. The hook may block — runIslands() waits here for the
     * epoch barrier — and may signal termination by arranging for
     * shouldStop to return true afterwards.
     */
    std::function<std::vector<Variant>(int epoch,
                                       const std::vector<Variant> &)>
        onMigration;

    // ---------------- cross-fleet cache sharing ----------------------
    /**
     * Fleet-shared fitness lookup, consulted once per evaluation batch
     * for the keys that missed the local cache. Hits skip simulation
     * and are adopted into the local cache; they carry exact scores,
     * so the search trajectory — population sequence, winner, final
     * patch — is bit-identical with or without sharing. Only the
     * work-accounting counters (evals, cache hits) depend on what the
     * rest of the fleet already scored.
     */
    std::function<void(
        const std::vector<std::string> &keys,
        std::unordered_map<std::string, FitnessCache::Entry> *cache_hits,
        std::unordered_map<std::string, QuarantineEntry>
            *quarantine_hits)>
        fleetLookup;
    /** Fleet-shared publish, called once per batch with the entries
     *  this engine freshly scored (exact results only) and the keys it
     *  freshly condemned. */
    std::function<void(
        const std::vector<std::pair<std::string, FitnessCache::Entry>>
            &scored,
        const std::vector<std::pair<std::string, QuarantineEntry>>
            &condemned)>
        fleetPublish;
};

/**
 * The search's counters, declared once: fitness probes (the paper's
 * RQ3 cost measure), mutants, pre-screen rejects, per-outcome and
 * fitness-cache counts. The engine keeps one;
 * GenerationStats, RepairResult and IslandStats extend it and
 * EngineState stores it. forEachCounter() below lists every field
 * with its wire name; operator+= and service::countersToJson() are
 * built on it.
 */
struct SearchCounters
{
    long fitnessEvals = 0;    //!< fitness probes (simulations)
    long invalidMutants = 0;  //!< mutants rejected by validation
    long totalMutants = 0;    //!< children produced
    long lintRejects = 0;     //!< rejected by the lint pre-screen
    /** Evaluations this process satisfied from the fleet-shared cache
     *  / quarantine (0 without a fleetLookup hook). Work accounting,
     *  not part of the deterministic search: never snapshotted, so a
     *  resumed run counts only its own hits. */
    long fleetCacheHits = 0;
    long fleetQuarantineHits = 0;
    OutcomeCounts outcomes;   //!< per-outcome evaluation counts
    CacheStats cache;         //!< fitness-cache hits/misses/evictions

    /** Field-wise; defaulted in engine.cc, like OutcomeCounts' and
     *  CacheStats', so this header still compiles as C++17 (the
     *  bench/e2e targets include it without asking for C++20). */
    bool operator==(const SearchCounters &) const;
    /** Field-wise sum (a K-island job's counters are its islands'). */
    SearchCounters &operator+=(const SearchCounters &other);
};

/**
 * Calls f(group, name, field...) once per counter, with that counter
 * of each of @p c: @p name is its wire name, @p group "" for a
 * top-level key, else the nested object ("cache", "outcomes") that
 * holds it. The one list of SearchCounters' fields — a counter added
 * to the struct is added here and nowhere else.
 */
template <class F, class... Counters>
void
forEachCounter(F &&f, Counters &...c)
{
    f("", "fitness_evals", c.fitnessEvals...);
    f("", "invalid_mutants", c.invalidMutants...);
    f("", "total_mutants", c.totalMutants...);
    f("", "lint_rejects", c.lintRejects...);
    f("", "fleet_cache_hits", c.fleetCacheHits...);
    f("", "fleet_quarantine_hits", c.fleetQuarantineHits...);
    f("cache", "hits", c.cache.hits...);
    f("cache", "misses", c.cache.misses...);
    f("cache", "evictions", c.cache.evictions...);
    for (int i = 0; i < kEvalOutcomeCount; ++i)
        f("outcomes", evalOutcomeName(static_cast<EvalOutcome>(i)),
          c.outcomes.counts[static_cast<size_t>(i)]...);
    f("outcomes", "quarantine_hits", c.outcomes.quarantineHits...);
}

/** Per-generation progress report passed to EngineConfig::onGeneration;
 *  the counters are cumulative. */
struct GenerationStats : SearchCounters
{
    int generation = 0;        //!< 1-based index of the finished generation
    /** Best fitness in the new population (-1 before the first). */
    double bestFitness = -1.0;
    size_t quarantined = 0;    //!< condemned patch keys so far
    int witnessBenches = 0;    //!< witness benches active this run
    double elapsedSeconds = 0.0;
    /** Island id of this run (-1 for a plain, non-island run). */
    int island = -1;
    /** Migration epochs completed so far (0 without migration). */
    int epoch = 0;
};

/** Outcome of one repair trial. */
struct RepairResult : SearchCounters
{
    bool found = false;
    Patch patch;                    //!< minimized repair (when found)
    std::string repairedSource;     //!< regenerated Verilog
    FitnessResult finalFitness;
    int generations = 0;
    double seconds = 0.0;
    /** True when EngineConfig::shouldStop ended the run early (the
     *  run was canceled, not exhausted). */
    bool stopped = false;
    /** (probe index, best fitness) at each improvement — RQ3 data. */
    std::vector<std::pair<long, double>> fitnessTrajectory;
    /** Witness benches the run's oracle was hardened with. */
    int witnessBenches = 0;
    /** Overfit patches demoted by a witness before this result (only
     *  set by the hardened repair loop; 0 for plain runs). */
    int overfitKills = 0;
    /** Per-epoch imported-migrant keys (island runs; empty without
     *  migration). Deterministic per (seed, K, migration schedule). */
    std::vector<MigrantRecord> migrantLedger;
    /** Always 0: the engine no longer aborts; bench/e2e still reads it. */
    long earlyAborts = 0;
};

/**
 * Repair engine bound to one defect scenario: a faulty design (DUT +
 * instrumented testbench), a probe configuration, and the
 * expected-behavior oracle.
 */
class RepairEngine
{
  public:
    RepairEngine(std::shared_ptr<const verilog::SourceFile> faulty,
                 std::string tb_module, std::string dut_module,
                 sim::ProbeConfig probe, Trace oracle,
                 EngineConfig config);

    /** Run Algorithm 1 until a repair is found or resources run out. */
    RepairResult run();

    /**
     * Continue a run from a snapshot (see snapshot.h). The restored
     * run is bit-identical to the uninterrupted one: RNG stream,
     * population, quarantine, cache contents and counters all resume
     * exactly where the snapshot was taken.
     *
     * @throws std::runtime_error when the snapshot was taken against a
     *         different design (fingerprint mismatch), under a different
     *         seed or island slot, or is corrupt.
     */
    RepairResult resume(const EngineState &state);

    /**
     * Evaluate one patch: apply, validate, elaborate, simulate, score,
     * going through the fitness cache. Exposed for the brute-force
     * baseline, minimization and tests. Main thread only.
     */
    Variant evaluate(const Patch &patch);

    /**
     * Cache-free, counter-free evaluation. Thread-safe: touches only
     * immutable engine state (the faulty AST, probe, oracle, config)
     * and objects owned by the call, so any number of invocations may
     * run concurrently. This is what run() fans out to worker threads.
     */
    Variant evaluateUncached(const Patch &patch) const;

    /**
     * The static checks a candidate must pass before it is simulated:
     * structural validation, then (with lintPrescreen) the lint
     * pre-screen. Both run on only the modules @p patch edits (see
     * touchedModules()), and agree exactly with validating and linting
     * the whole of @p patched, the result of applyPatch(faulty,
     * patch). Returns Ok, ParseFail or LintReject; on a rejection
     * @p error receives the reason. Thread-safe like
     * evaluateUncached.
     */
    EvalOutcome screen(const verilog::SourceFile &patched,
                       const Patch &patch, std::string *error) const;

    /**
     * Indices of the modules @p patch edits, ascending: the modules of
     * its edit targets. A target an earlier edit of the patch created
     * lies in that edit's module, which is already in the set. nullopt
     * means "check the whole file": the patch is empty, or a target is
     * inside a declaration (which can change what other modules see)
     * or is no statement or expression of the baseline.
     */
    std::optional<std::vector<size_t>>
    touchedModules(const Patch &patch) const;

    const EngineConfig &config() const { return config_; }
    const Trace &oracle() const { return oracle_; }
    /** Counters so far, fitness-cache accounting included (the same
     *  values RepairResult and GenerationStats report). */
    SearchCounters counters() const;
    /** Keys condemned by a Runaway/Deadline/Oom/Crashed evaluation. */
    size_t quarantineSize() const { return quarantine_.size(); }
    /** Imported-migrant ledger so far (island runs; see MigrantRecord). */
    const std::vector<MigrantRecord> &migrantLedger() const
    {
        return migrantLedger_;
    }

  private:
    /** run() and resume() share one loop; @p restore is null for a
     *  fresh run. */
    RepairResult runInternal(const EngineState *restore);

    /** Serialize the complete search state (see snapshot.h). */
    EngineState
    captureState(int generations_done, const std::vector<Variant> &popn,
                 double elapsed_seconds, double best_seen,
                 const std::vector<std::pair<long, double>> &trajectory)
        const;

    /** Build the worst-fitness Variant a quarantine hit returns. */
    Variant quarantinedVariant(const Patch &patch,
                               const QuarantineEntry &entry) const;

    /**
     * Evaluate a batch of candidate patches: cache lookups and
     * in-batch deduplication on the calling thread, every cache miss
     * fanned out to the pool in one dispatch, results merged (and the
     * cache updated) in child order. @p simulated_out receives, per
     * child, whether a real simulation ran (the caller charges
     * fitnessEvals in order).
     */
    std::vector<Variant> evaluateBatch(const std::vector<Patch> &patches,
                                       std::vector<bool> &simulated_out);
    EvalPool &pool();
    const Variant &tournament(const std::vector<Variant> &popn);

    /**
     * Simulate @p patched under every configured witness bench and fold
     * the per-bench scores into v.fit. A witness simulation that ends
     * in anything but Ok marks @p v failed with that outcome and the
     * offending bench named in v.error. Thread-safe like
     * evaluateUncached: reads only immutable engine state.
     */
    void scoreWitnessBenches(const verilog::SourceFile &patched,
                             Variant &v) const;

    /** Per-witness-bench immutable runtime state. */
    struct WitnessRuntime
    {
        const OracleBench *bench = nullptr;  //!< into config_'s vector
        std::shared_ptr<const verilog::SourceFile> file;  //!< parsed TB
    };

    std::shared_ptr<const verilog::SourceFile> faulty_;
    std::string tbModule_, dutModule_;
    sim::ProbeConfig probe_;
    Trace oracle_;
    EngineConfig config_;
    /** Guards and limits of every candidate and witness simulation,
     *  derived from config_ once at construction. */
    sim::SimGuards guards_;
    sim::RunLimits limits_;
    /** Witness benches parsed once at construction; immutable
     *  afterwards (worker threads read them). */
    std::vector<WitnessRuntime> witnessRt_;
    std::mt19937_64 rng_;
    FitnessCache cache_;
    std::unique_ptr<EvalPool> pool_;  //!< created lazily by run()
    /** Every counter but cache, which cache_ keeps (see counters()). */
    SearchCounters counters_;
    /** The lint pre-screen against the baseline design (engaged when
     *  config_.lintPrescreen); immutable after construction (worker
     *  threads read it). */
    std::optional<lint::Prescreen> prescreen_;
    /** Baseline node id -> index of its module, or kWholeFile for a
     *  node inside a declaration; ids past the end are nodes a patch
     *  created. Empty when module names repeat (lint keys findings by
     *  module name). Immutable after construction. */
    std::vector<int> moduleOfNode_;
    static constexpr int kWholeFile = -1;
    /** Does every module of the baseline validate? (Scoped validation
     *  is exact only then.) */
    bool baselineValid_ = true;
    /** Patch keys that crashed/ran away once: never re-simulated.
     *  Main thread only, like the cache. */
    std::unordered_map<std::string, QuarantineEntry> quarantine_;
    /** Imported-migrant keys per completed epoch (island runs). */
    std::vector<MigrantRecord> migrantLedger_;
};

/**
 * Unbiased uniform draw from [0, n): the modulo idiom rng() % n skews
 * toward small values when n does not divide 2^64 (tournament
 * selection bias); this uses std::uniform_int_distribution instead.
 */
size_t uniformIndex(std::mt19937_64 &rng, size_t n);

/** The seed of trial @p trial in a multi-trial run that starts at
 *  @p seed0: trials are independent searches. */
inline uint64_t
trialSeed(uint64_t seed0, int trial)
{
    return seed0 + static_cast<uint64_t>(trial) * 7919;
}

} // namespace cirfix::core
