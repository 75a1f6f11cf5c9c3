#pragma once

/**
 * @file
 * One repair session: everything between "a JobSpec popped off the
 * queue" and "a terminal state with a result payload".
 *
 * The session layer owns the deterministic mapping from wire-level
 * job descriptions to engine runs:
 *
 *  - engineConfigFromSpec() is the single place a JobSpec becomes an
 *    EngineConfig, so a daemon run and a direct in-process run of the
 *    same spec are bit-identical (the restart acceptance test compares
 *    exactly these two).
 *  - buildJobInputs() parses the design, derives the probe config and
 *    materializes the expected-behavior oracle (from the submitted CSV
 *    or by re-simulating the golden source under the design's own
 *    testbench, mirroring the CLI's --golden path).
 *  - runRepairJob() wires checkpointing to the job's snapshot path:
 *    if the snapshot exists the engine resume()s (daemon restart),
 *    otherwise it run()s fresh; each generation is durable before its
 *    progress event is published.
 */

#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/island.h"
#include "service/jobqueue.h"
#include "service/protocol.h"

namespace cirfix::service {

/** Parsed, simulation-ready inputs for one job. */
struct JobInputs
{
    std::shared_ptr<const verilog::SourceFile> faulty;
    sim::ProbeConfig probe;
    core::Trace oracle;
};

/** The one JobSpec -> EngineConfig mapping (no snapshot path, no
 *  callbacks; callers attach those). */
core::EngineConfig engineConfigFromSpec(const JobSpec &spec);

/** The one JobSpec -> IslandConfig mapping (island.h). */
core::IslandConfig islandConfigFromSpec(const JobSpec &spec);

/** Parse + oracle materialization. @throws std::runtime_error on a
 *  design that does not parse, a missing module, or a bad oracle. */
JobInputs buildJobInputs(const JobSpec &spec);

/** Map a finished engine run to the wire result payload. */
Json resultToJson(const core::RepairResult &res);

/** Write every search counter into @p j under the wire name
 *  core::forEachCounter() gives it (fitness_evals, ...,
 *  cache{hits,misses,evictions}, outcomes{<outcome>...,
 *  quarantine_hits}). Results, generation events, status summaries,
 *  worker progress frames and island digests all go through it. */
void countersToJson(const core::SearchCounters &c, Json &j);
/** Inverse of countersToJson(); a missing or non-numeric key reads 0. */
core::SearchCounters countersFromJson(const Json &j);

/** One generation's progress on the wire: generation, best_fitness,
 *  quarantined, island + epoch (island runs only) and the counters.
 *  A worker's progress frame and the daemon's generation event both
 *  carry it. */
Json generationToJson(const core::GenerationStats &gs);
/** Inverse of generationToJson() (best_fitness defaults to -1). */
core::GenerationStats generationFromJson(const Json &j);

// ---- island-model wire mappings (one schema for the in-process
// ---- daemon path and the distributed coordinator path, so the two
// ---- runs' fingerprints can be compared field by field) ----

/** Imported-migrant ledger records <-> JSON ([{epoch, keys:[..]}]). */
Json migrantRecordsToJson(const std::vector<core::MigrantRecord> &l);
std::vector<core::MigrantRecord> migrantRecordsFromJson(const Json &j);

/** One island's digest — the fingerprinted fields (bestFitness ships
 *  as a hexfloat string so it round-trips bit-exactly) plus the
 *  volatile work counters. */
Json islandDigestToJson(const core::IslandStats &st);
/** @throws std::runtime_error on a malformed digest. */
core::IslandStats islandStatsFromDigest(const Json &digest);

/** The "islands" block of a K-island result payload: configuration,
 *  winner, per-island digests, sealed broadcasts, migration totals and
 *  the canonical fingerprint (decimal string — it is a uint64). */
Json islandBlockJson(
    uint64_t seed, const core::IslandConfig &cfg, bool found,
    int winnerIsland, int winnerEpoch,
    const std::vector<core::IslandStats> &islands,
    const std::vector<std::pair<int, std::vector<std::string>>>
        &broadcasts,
    const core::MigrationStats &migration, uint64_t fingerprint);

/** Full result payload of an in-process K-island run: the winning
 *  island's result plus the "islands" block. */
Json islandOutcomeToJson(const core::IslandOutcome &outcome,
                         uint64_t seed,
                         const core::IslandConfig &cfg);

/** How runRepairJob() ended. */
struct SessionOutcome
{
    JobState state = JobState::Failed;
    Json result;        //!< payload for Done/Canceled
    std::string error;  //!< diagnostic for Failed
};

/**
 * Execute (or resume) one job. @p snapshotPath receives a checkpoint
 * every generation; when the file already exists the run resumes from
 * it bit-identically. @p onGeneration fires after each generation's
 * checkpoint is durable; @p shouldStop is polled mid-generation. A
 * true @p shouldStop ending maps to Canceled (with the partial-run
 * counters as payload); every exception maps to Failed. Never throws.
 * @p provenance is stamped into each checkpoint (the fleet worker's
 * name) — informational only, it never changes the search.
 */
SessionOutcome
runRepairJob(const JobSpec &spec, const std::string &snapshotPath,
             const std::function<void(const core::GenerationStats &)>
                 &onGeneration,
             const std::function<bool()> &shouldStop,
             const std::string &provenance = "");

/** Remove the checkpoint runRepairJob() keeps at @p snapshotPath: the
 *  snapshot file and, for an in-process K-island run, its directory.
 *  Never throws. */
void removeCheckpoint(const std::string &snapshotPath);

/**
 * Transport hooks a distributed island shard uses to reach its
 * coordinator (the fleet worker wires these to migrate / cache_sync
 * frames; tests may wire them straight to a MigrationLedger).
 */
struct IslandShardHooks
{
    /** Blocking epoch exchange: offer this island's elites, return the
     *  sealed broadcast migrant set. Sets *stop when the run must end
     *  (a winner sealed at this epoch or earlier, lease lost, link
     *  dead). Required. */
    std::function<std::vector<core::Variant>(
        int epoch, std::vector<core::Variant> elites, bool *stop)>
        exchange;
    /** Audit hook for a resumed shard's imported-migrant ledger
     *  (coordinator-side verifyReplay); may be null. */
    std::function<void(const std::vector<core::MigrantRecord> &)>
        replay;
    /** Fleet-shared fitness cache (may be null — no sharing). */
    std::function<void(
        const std::vector<std::string> &,
        std::unordered_map<std::string, core::FitnessCache::Entry> *,
        std::unordered_map<std::string, core::QuarantineEntry> *)>
        lookup;
    std::function<void(
        const std::vector<
            std::pair<std::string, core::FitnessCache::Entry>> &,
        const std::vector<std::pair<std::string,
                                    core::QuarantineEntry>> &)>
        publish;
};

/** How one island shard of a distributed K-island job ended. */
struct IslandShardOutcome
{
    SessionOutcome session;  //!< Done/Failed + result payload
    Json digest;             //!< island digest for the done frame
    bool stopped = false;    //!< ended by a stop (winner/cancel)
};

/**
 * Execute (or resume) one island shard of a distributed K-island job.
 * Same checkpoint contract as runRepairJob() — the snapshot carries
 * island provenance (v8) and the resume path hands the restored
 * migrant ledger to @p hooks.replay before continuing. A normal return
 * maps to Done (even when a coordinator stop ended the search — the
 * coordinator decides the job's overall state); exceptions map to
 * Failed. Never throws.
 */
IslandShardOutcome runIslandShard(
    const JobSpec &spec, int island, const std::string &snapshotPath,
    const IslandShardHooks &hooks,
    const std::function<void(const core::GenerationStats &)>
        &onGeneration,
    const std::function<bool()> &shouldStop,
    const std::string &provenance = "");

} // namespace cirfix::service
