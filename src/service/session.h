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
 *    testbench, through core::runGuarded under the job's memory budget
 *    and deadline).
 *  - runRepairJob() wires checkpointing to the job's snapshot path:
 *    if the snapshot exists the engine resume()s (daemon restart, or a
 *    rerun `cirfix repair --snapshot`), otherwise it run()s fresh; each
 *    generation is durable before its progress event is published.
 *    A daemon worker and every `cirfix repair` trial run through it.
 */

#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
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

/** Parse + oracle materialization. The golden is recorded under the
 *  job's evalMemoryBudget and evalDeadlineSeconds with default run
 *  bounds. @throws std::runtime_error on a design that does not parse,
 *  a missing module, a bad oracle CSV, or a golden run that ends in
 *  anything but ok (the message names the golden and the outcome). */
JobInputs buildJobInputs(const JobSpec &spec);

/** The modules of @p design that @p golden does not redefine: the
 *  testbench a golden file holding only replacement DUT module(s) is
 *  simulated under. */
std::string testbenchOnlySource(const verilog::SourceFile &design,
                                const verilog::SourceFile &golden);

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

} // namespace cirfix::service
