#pragma once

/**
 * @file
 * Message layer of the repair-service wire protocol (version 3).
 *
 * Every frame (framing.h) carries one JSON object with a "type"
 * member. A connection opens with a versioned handshake — the client
 * sends {"type":"hello","version":3} and the server answers with its
 * own hello (or a version_mismatch error and a close) — after which
 * the client issues requests:
 *
 *   type        direction  payload
 *   ----------  ---------  ------------------------------------------
 *   hello       both       version, server name (server side)
 *   submit      c -> s     job: JobSpec (design, tb, dut, oracle/golden,
 *                          params, priority)
 *   submitted   s -> c     id of the accepted job
 *   status      c -> s     id -> job: summary (state, progress)
 *   list        c -> s     -> jobs: array of summaries
 *   cancel      c -> s     id -> ok (queued jobs cancel immediately;
 *                          running jobs stop mid-generation)
 *   result      c -> s     id -> result: terminal payload (error
 *                          not_done while the job is still live)
 *   subscribe   c -> s     id -> stream of event frames, ending with
 *                          the terminal state event
 *   event       s -> c     generation progress or a state change
 *   ok          s -> c     generic success
 *   error       s -> c     code (stable identifier) + message (human)
 *
 * Admission control is part of the contract: a submit beyond the
 * queue depth or the per-job budget caps is answered with a structured
 * error (code queue_full / budget_too_large) — never silently dropped
 * and never blocking the accept loop. A coordinator extends the
 * taxonomy with no_workers (fleet mode with zero live executors) and
 * degraded (worker capacity below the configured floor; queue depth is
 * halved until workers return).
 *
 * Fleet extensions (same version, same framing). A worker's hello
 * carries role:"worker" plus a worker name; the coordinator's hello
 * reply adds shared_state_dir:true for its own in-process workers
 * (their work dir is its state dir, so no snapshot bytes travel). The
 * coordinator then speaks a strict request/response loop on that
 * connection:
 *
 *   claim      w -> c     wait_ms -> job (spec + lease + snapshot)
 *                         or no_job when the queue stayed empty
 *   job        c -> w     id, spec, lease_id, lease_seconds.
 *                         Envelope: the snapshot to resume from (none
 *                         for a fresh job or a shared state dir)
 *   progress   w -> c     id, lease_id, generation stats (island and
 *                         epoch for a K-island job). Envelope: the
 *                         generation's snapshot -> ok (carries cancel
 *                         flag) or error lease_lost
 *   heartbeat  w -> c     id, lease_id -> ok (cancel flag) / lease_lost
 *   done       w -> c     id, lease_id, state, result/error -> ok /
 *                         lease_lost
 *
 * A job with params.islands > 1 is claimed whole: the worker runs
 * every island in process (core::runIslands), so no frame type is
 * island-specific. Any other worker frame is answered bad_request and
 * renews nothing.
 *
 * Envelopes: a job or progress frame carries its engine snapshot as
 * raw bytes after the JSON document and one '\0' (packEnvelope()).
 * JSON text never holds a raw NUL, so the first NUL is the split; a
 * frame without one carries no snapshot. Only a worker connection
 * reads envelopes; on a client connection the NUL fails the parse.
 *
 * Leases are the duplication barrier: every assignment mints a fresh
 * lease_id, and progress/done frames quoting a stale lease are
 * rejected with lease_lost — a worker that was presumed dead and kept
 * computing cannot commit a result the coordinator already re-queued.
 *
 * Idempotent submits: a client may attach a request_id to a submit and
 * retry it verbatim after a transport error; the server replies with
 * the originally assigned job id instead of enqueueing a duplicate.
 */

#include <cstdint>
#include <string>

#include "service/json.h"

namespace cirfix::service {

inline constexpr int kProtocolVersion = 3;
inline constexpr const char *kServerName = "cirfix-repaird";

/** Stable error codes carried in the "code" member of error frames. */
namespace errc {
inline constexpr const char *kQueueFull = "queue_full";
inline constexpr const char *kBudgetTooLarge = "budget_too_large";
inline constexpr const char *kBadRequest = "bad_request";
inline constexpr const char *kUnknownJob = "unknown_job";
inline constexpr const char *kNotDone = "not_done";
inline constexpr const char *kVersionMismatch = "version_mismatch";
inline constexpr const char *kInternal = "internal";
/** Fleet admission: coordinator requires workers and none are live. */
inline constexpr const char *kNoWorkers = "no_workers";
/** Fleet admission: capacity below the floor; depth halved. */
inline constexpr const char *kDegraded = "degraded";
/** The lease quoted by a progress/done/heartbeat frame is stale: the
 *  job was re-assigned. The worker must abandon the attempt. */
inline constexpr const char *kLeaseLost = "lease_lost";
} // namespace errc

/** Job lifecycle. Queued -> Running -> {Done, Canceled, Failed};
 *  Queued -> Canceled directly; a daemon restart moves a Running job
 *  back to Queued (it resumes from its generation snapshot). */
enum class JobState { Queued, Running, Done, Canceled, Failed };

const char *jobStateName(JobState s);
JobState jobStateFromName(const std::string &name); //!< throws
inline bool
isTerminal(JobState s)
{
    return s == JobState::Done || s == JobState::Canceled ||
           s == JobState::Failed;
}

/** Engine knobs a submission may set (mirrors EngineConfig fields the
 *  service exposes; everything else keeps the engine default). */
struct JobParams
{
    int popSize = 40;
    int maxGenerations = 8;
    double maxSeconds = 600.0;
    uint64_t seed = 1;
    int numThreads = 1;  //!< per-job; the daemon multiplexes jobs
    double phi = 2.0;
    double evalDeadlineSeconds = 30.0;
    uint64_t evalMemoryBudget = 64ull << 20;
    /** Island-model evolution (island.h): subpopulation count. 1 is a
     *  plain single-population run; K > 1 runs K islands in process on
     *  whichever worker claims the job. */
    int islands = 1;
    /** Generations per migration epoch (islands > 1 only). */
    int migrationInterval = 2;
    /** Elites each island exports at every epoch boundary. */
    int migrantsPerIsland = 2;
};

/** One repair request: a faulty design + expected behavior. Exactly
 *  one of oracleCsv / goldenSource must be set. */
struct JobSpec
{
    std::string designSource;  //!< faulty DUT + testbench (+ extras)
    std::string tbModule;
    std::string dutModule;
    std::string oracleCsv;     //!< recorded expected-behavior trace
    std::string goldenSource;  //!< or: golden DUT re-simulated server-side
    JobParams params;
    int priority = 0;          //!< higher runs first; FIFO within a level
};

Json toJson(const JobSpec &spec);
/** @throws std::runtime_error on missing/invalid members. */
JobSpec jobSpecFromJson(const Json &j);
/** The checks jobSpecFromJson() applies: inputs present, exactly one
 *  oracle, sane GP and island bounds. @throws std::runtime_error. */
void checkJobSpec(const JobSpec &spec);

// ---- frame builders ----
Json makeHello();
/** Hello announcing a fleet worker (role:"worker" + name). */
Json makeWorkerHello(const std::string &workerName);
Json makeError(const std::string &code, const std::string &message);

/** A frame payload carrying @p bytes after @p doc: doc.dump(), then
 *  '\0' and the bytes; just doc.dump() when @p bytes is empty. */
std::string packEnvelope(const Json &doc, const std::string &bytes);
/** Inverse of packEnvelope(): the document before the first NUL, with
 *  the bytes after it in @p bytes ("" when there is no NUL).
 *  @throws std::runtime_error when the document does not parse. */
Json unpackEnvelope(const std::string &payload, std::string *bytes);

/** Check an incoming hello; returns false (and fills @p why) on a
 *  version or shape mismatch. Accepts both client and worker hellos;
 *  @p role (optional) receives "client" or "worker". */
bool checkHello(const Json &msg, std::string *why,
                std::string *role = nullptr,
                std::string *workerName = nullptr);

} // namespace cirfix::service
