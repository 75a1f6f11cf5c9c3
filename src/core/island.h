#pragma once

/**
 * @file
 * Island-model evolution: K subpopulations of the same repair search,
 * each a full RepairEngine with its own derived seed, exchanging elite
 * patches at fixed generation boundaries ("migration epochs").
 *
 * Determinism contract. A K-island run is a pure function of
 * (seed, K, migrationInterval, migrantsPerIsland): each island's RNG
 * stream is derived from the job seed and its index, elites are
 * exported at every epoch boundary (after the generation's elitism
 * truncation, before its snapshot), and the broadcast migrant set is a
 * deterministic merge — fitness descending, patch key ascending,
 * deduplicated, minus fleet-quarantined keys. Timing, thread
 * scheduling, crashes and failover can change only *work* counters
 * (evaluations, cache hits, early aborts); the populations, the
 * migrant ledger, the winner and the final patch are bit-identical
 * per configuration. IslandOutcome::fingerprint hashes exactly the
 * invariant part, so two runs — the CLI and a daemon worker, with or
 * without a crash and resume mid-epoch — can be compared with one
 * integer.
 *
 * The soundness of cross-island fitness sharing (why a shared cache hit
 * cannot change the search) is argued in DESIGN.md "Island-model
 * evolution": local caches never store early-aborted scores, so every
 * shared entry is exact, and an exact score substituted for a
 * would-have-aborted simulation still falls below the survival cutoff
 * that would have aborted it.
 *
 * runIslands() is the one island driver: "cirfix repair --islands K"
 * calls it, and so does the service worker that claims a K-island job
 * (service/session.h), running every island on its own thread. It
 * drives the MigrationLedger (the barrier) and the SharedFitnessStore
 * directly and persists the ledger next to the islands' checkpoints
 * for crash recovery.
 */

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"

namespace cirfix::core {

/** Knobs of a K-island run (all part of the fingerprint). */
struct IslandConfig
{
    int islands = 1;
    /** Generations per migration epoch. */
    int migrationInterval = 2;
    /** Elites each island exports at every epoch boundary. */
    int migrantsPerIsland = 2;
};

/** Migration-machinery totals. The first two are volume counters; the
 *  last two are *hard invariants* (tests/test_island.cc asserts them
 *  at zero):
 *  a nonzero migrantDuplicates means the dedup merge emitted the same
 *  key twice in one broadcast, a nonzero elitesLost means a resumed
 *  island's replay disagreed with the ledger. */
struct MigrationStats
{
    long elitesExported = 0;    //!< elites received across all epochs
    long migrantsBroadcast = 0; //!< broadcast-set entries, summed
    long migrantDuplicates = 0; //!< duplicate keys inside one broadcast
    long elitesLost = 0;        //!< replay/re-export mismatches
};

/** Per-island digest of a finished (or stopped) island run. The
 *  fields below are fingerprinted; the inherited counters are volatile
 *  work accounting (excluded — see the determinism contract above). */
struct IslandStats : SearchCounters
{
    int island = 0;
    int generations = 0;
    bool found = false;
    bool stopped = false;
    /** Best fitness ever seen, read at the end of the run (converged:
     *  per-generation it is timing-invariant once the generation's
     *  whole merge pool has been absorbed). */
    double bestFitness = 0.0;
    /** Minimized winning patch key ("" unless found). */
    std::string patchKey;
    /** Per-epoch keys of migrants actually injected. */
    std::vector<MigrantRecord> ledger;
};

/** The whole K-island run: the winning island's full result plus the
 *  per-island digests and migration accounting. */
struct IslandOutcome
{
    bool found = false;
    int winnerIsland = -1;
    /** Epoch the winner's discovery generation belongs to
     *  (ceil(generations / migrationInterval)). */
    int winnerEpoch = 0;
    /** The winning island's result (best non-winner by bestFitness,
     *  lowest index tiebreak, when nothing was found). */
    RepairResult result;
    std::vector<IslandStats> islands;
    /** Broadcast migrant keys per sealed epoch, ascending epoch. */
    std::vector<std::pair<int, std::vector<std::string>>> broadcasts;
    MigrationStats migration;
    /** Canonical hash of the run: seed and configuration, per-island
     *  digests (invariant fields only), the winner and every sealed
     *  broadcast. Volatile work counters never enter. */
    uint64_t fingerprint = 0;
};

/** Island i's RNG seed. Identity at island 0, so a 1-island run draws
 *  the exact stream a plain run would. */
uint64_t deriveIslandSeed(uint64_t seed, int island);

/** Derive island @p island's engine config from the job's base config:
 *  derived seed, island provenance, migration interval. Hooks
 *  (onMigration, fleetLookup/fleetPublish, shouldStop) stay unset —
 *  the caller attaches its transport. At islands == 1 no migration
 *  hook should be attached at all: the run must equal a plain run. */
EngineConfig deriveIslandEngineConfig(const EngineConfig &base,
                                      const IslandConfig &ic,
                                      int island);

/** Top-@p n *valid* variants by (fitness desc, key asc) — a strict
 *  total order, so exports are schedule-independent. */
std::vector<Variant> selectElites(const std::vector<Variant> &popn,
                                  int n);

/**
 * Merge per-island epoch exports into the broadcast migrant set:
 * concatenate, order by (fitness desc, key asc), drop duplicate keys
 * and keys @p isQuarantined condemns. Every island receives this same
 * set; injectMigrants() deduplicates against the local population, so
 * an island never re-imports its own exports. @p stats accumulates
 * volume counters and the duplicate invariant.
 */
std::vector<Variant> selectMigrants(
    const std::vector<std::vector<Variant>> &exports,
    const std::function<bool(const std::string &)> &isQuarantined,
    MigrationStats *stats);

/**
 * Inject @p migrants into @p popn at a generation boundary: append
 * every migrant whose key is not already present, stable-sort by
 * fitness descending (stable: local members and broadcast rank break
 * ties deterministically), truncate to @p popSize. @return the keys
 * of migrants that survived into the population, in population order.
 */
std::vector<std::string> injectMigrants(std::vector<Variant> *popn,
                                        const std::vector<Variant>
                                            &migrants,
                                        int popSize);

/** Thread-safe cross-island fitness/quarantine store, keyed by
 *  Patch::key. One instance per runIslands() call, which its islands
 *  share through their engines' fleetLookup/fleetPublish hooks. */
class SharedFitnessStore
{
  public:
    void publish(
        const std::vector<std::pair<std::string, FitnessCache::Entry>>
            &scored,
        const std::vector<std::pair<std::string, QuarantineEntry>>
            &condemned);

    /** Fill @p cacheHits / @p quarantineHits for every known key. */
    void lookup(const std::vector<std::string> &keys,
                std::unordered_map<std::string, FitnessCache::Entry>
                    *cacheHits,
                std::unordered_map<std::string, QuarantineEntry>
                    *quarantineHits) const;

    bool isQuarantined(const std::string &key) const;
    size_t cacheSize() const;
    size_t quarantineSize() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, FitnessCache::Entry> cache_;
    std::unordered_map<std::string, QuarantineEntry> quarantine_;
};

/** The part of a MigrationLedger that runIslands() checkpoints next to
 *  the islands' snapshots (encodeLedger/decodeLedger in snapshot.h):
 *  the sealed epochs and the winner. Of the done marks only the
 *  winner's is kept — it is part of the search, while an island that
 *  merely ran out of generations is done only under this budget, and a
 *  resume with a larger one must go on as one longer run would. */
struct LedgerState
{
    /** decodeLedger() refuses any other version, and runIslands()
     *  then restarts the job from scratch. */
    static constexpr int kVersion = 2;

    struct Epoch
    {
        int epoch = 0;
        /** (island, elites), ascending island. */
        std::vector<std::pair<int, std::vector<Variant>>> submissions;
        std::vector<Variant> migrants;
    };

    IslandConfig config;
    MigrationStats stats;
    int winnerIsland = -1;
    int winnerEpoch = 0;
    /** Sealed epochs, ascending. */
    std::vector<Epoch> epochs;
};

/**
 * The epoch barrier. Islands submit() their elites at each boundary
 * and wait() until the epoch *seals* — every island has either
 * submitted that epoch or marked itself done. Sealing epoch e fixes the
 * winner decision for every epoch <= e (an island whose discovery lies
 * in epoch w never submits w, so its done-mark is part of seal(e) for
 * all e >= w), which is why stop decisions handed out at barriers are
 * timing-independent. All methods are internally locked.
 */
class MigrationLedger
{
  public:
    /** @p isQuarantined filters the broadcast (selectMigrants; may be
     *  null). */
    explicit MigrationLedger(
        IslandConfig cfg,
        std::function<bool(const std::string &)> isQuarantined = nullptr);

    /** Island @p island offers @p elites at epoch @p epoch. Idempotent
     *  per (island, epoch): a resumed island's re-export with identical
     *  keys is ignored, a mismatching one counts elitesLost (the first
     *  submission already fed the broadcast). */
    void submit(int island, int epoch, std::vector<Variant> elites);

    /** Island will make no further submissions. @p found marks a
     *  winner whose discovery generation lies in epoch @p finalEpoch;
     *  the winner among several is the lexicographically smallest
     *  (epoch, island). Idempotent. */
    void markDone(int island, int finalEpoch, bool found);

    struct Exchange
    {
        bool ready = false; //!< epoch sealed; fields below valid
        bool stop = false;  //!< a winner at epoch <= this one exists
        std::vector<Variant> migrants;
    };

    /** Barrier status at @p epoch (non-blocking). */
    Exchange poll(int epoch);

    /** Block until @p epoch seals, or until @p stopped (polled every
     *  20 ms with the ledger locked, so it must not call back into it;
     *  may be null) returns true — then not ready. */
    Exchange wait(int epoch, const std::function<bool()> &stopped);

    /** Resume replay check: every ledger entry a resumed island
     *  carries must be a subset of the epoch's broadcast; a violation
     *  counts elitesLost. */
    void verifyReplay(const std::vector<MigrantRecord> &ledger);

    bool allDone();
    /** (-1, 0) while no winner is sealed. */
    std::pair<int, int> winner();
    MigrationStats stats();
    /** Sealed broadcasts, ascending epoch. */
    std::vector<std::pair<int, std::vector<std::string>>> broadcasts();

    /** The checkpointed state (see LedgerState). */
    LedgerState state();
    /** Replace this ledger's state with @p saved. @return false (leaving
     *  *this untouched) when @p saved belongs to another IslandConfig. */
    bool restore(const LedgerState &saved);

  private:
    struct EpochState
    {
        std::unordered_map<int, std::vector<Variant>> submissions;
        bool sealed = false;
        std::vector<Variant> migrants;
        std::vector<std::string> migrantKeys;
    };

    void sealIfReadyLocked(int epoch);
    Exchange exchangeLocked(int epoch) const;

    std::mutex mu_;
    /** Notified, under mu_, whenever an epoch seals. */
    std::condition_variable sealed_;
    IslandConfig cfg_;
    std::function<bool(const std::string &)> isQuarantined_;
    std::unordered_map<int, EpochState> epochs_;
    std::unordered_map<int, int> doneAt_;  //!< island -> final epoch
    int winnerIsland_ = -1;
    int winnerEpoch_ = 0;
    MigrationStats stats_;
};

/** Bit-exact double text ("%a" hexfloat): the form the run fingerprint
 *  hashes and island digests ship, so both round-trip exactly. */
std::string hexDouble(double d);

/**
 * Run a K-island repair in-process: one engine thread per island, the
 * barrier and the shared fitness store wired directly. With
 * cfg.islands == 1 this is exactly a plain RepairEngine::run() (same
 * seed, no migration hook) — the K=1 fingerprint-identity invariant.
 * @p snapshotDir, when non-empty, receives island-<k>.snap checkpoints
 * every generation; existing checkpoints are resumed (crash recovery).
 */
IslandOutcome runIslands(
    std::shared_ptr<const verilog::SourceFile> faulty,
    const std::string &tbModule, const std::string &dutModule,
    const sim::ProbeConfig &probe, const Trace &oracle,
    const EngineConfig &base, const IslandConfig &cfg,
    const std::string &snapshotDir = "",
    const std::function<void(const GenerationStats &)> &onGeneration =
        nullptr,
    const std::function<bool()> &shouldStop = nullptr);

} // namespace cirfix::core
