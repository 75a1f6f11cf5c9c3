#pragma once

/**
 * @file
 * The daemon's job table and scheduler queue.
 *
 * One JobQueue instance holds every job the daemon knows about —
 * waiting, running, and terminal — behind a single mutex. Scheduling
 * order is priority-then-FIFO: a higher priority value always runs
 * first, ties run in submission order. Every worker, in-process or
 * remote, takes jobs through tryClaim() under a lease, and may wait
 * there for one to become ready (or for the queue to close at
 * shutdown).
 *
 * Admission control happens inside submit(), under the same lock the
 * accept loop's dispatch uses, so the decision is deterministic and
 * immediate: a submission beyond the configured queue depth or beyond
 * the per-job budget caps is rejected with a structured reason
 * (Rejection{code, message}); it is never silently dropped and never
 * blocks the caller.
 *
 * Progress streaming: every state change and every finished generation
 * is appended to the job's event log and broadcast. Subscribers drain
 * the log with waitEvent(), which returns false once a terminal event
 * has been delivered (or the queue closed), so a subscriber sees the
 * complete, ordered event history regardless of when it attached.
 *
 * Fleet mode adds two orthogonal mechanisms:
 *
 *  - Idempotent submits: a submission may carry a request id; retrying
 *    the same id (a client re-sending after a transport error) returns
 *    the originally assigned job instead of enqueueing a duplicate.
 *
 *  - Leases: a worker claims a job with tryClaim(), which mints
 *    a monotonically increasing lease id and arms a deadline. The
 *    worker renews by heartbeat/progress; a lease that misses its
 *    deadline is swept by requeueExpired() and the job goes back to
 *    Queued for any other worker. Every mutation quoting a lease id is
 *    validated against the job's *current* lease, so a worker that was
 *    presumed dead and kept computing gets a stale-lease rejection
 *    instead of committing a duplicate result. That single check is
 *    the fleet's zero-duplication guarantee.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/engine.h"
#include "service/protocol.h"

namespace cirfix::service {

/** Assignments a job gets. A requeue after the last one (its worker
 *  disconnected or let the lease expire, every time) ends the job
 *  Failed instead of queueing it again. Generous: a job under the
 *  fleet chaos tests' every-13th-write drops needs up to 8. */
inline constexpr int kMaxJobAttempts = 32;

/** Cap on islands x threads of one job: every island runs on a thread
 *  of its own, and its EvalPool starts threads - 1 more (threads <= 0
 *  counts as hardware_concurrency()). Larger requests are rejected
 *  with budget_too_large. */
inline constexpr long kMaxJobThreads = 64;
/** Cap on a job's per-evaluation memory budget; 0 (unlimited) is
 *  rejected with budget_too_large too. */
inline constexpr uint64_t kMaxJobMemoryBudget = 1ull << 30;

/** Admission-control policy knobs. */
struct AdmissionLimits
{
    /** Max jobs waiting to run (running/terminal jobs don't count).
     *  Submissions beyond this are rejected with queue_full. */
    int queueDepth = 64;
    /** Cap on islands * popSize * max(1, maxGenerations) (the job's
     *  evaluation budget); larger requests are rejected with
     *  budget_too_large. */
    long maxEvalBudget = 2'000'000;
    /** Cap on a job's wall-clock budget in seconds. */
    double maxBudgetSeconds = 3600.0;
};

/** Why a submission was refused (wire error code + human message). */
struct Rejection
{
    std::string code;
    std::string message;
};

/** One job, owned by the queue. Every field is guarded by the queue's
 *  mutex except cancelRequested, which the server's sweep and frame
 *  handlers read lock-free. */
struct Job
{
    long id = 0;
    long seq = 0;  //!< global submission order (FIFO tiebreak)
    JobSpec spec;
    JobState state = JobState::Queued;
    std::atomic<bool> cancelRequested{false};
    std::string requestId;  //!< idempotency key ("" = none)

    // Lease bookkeeping (leaseId 0 = not leased right now).
    uint64_t leaseId = 0;
    std::chrono::steady_clock::time_point leaseDeadline{};
    std::string worker;  //!< current/last executor name (provenance)
    int attempts = 0;    //!< assignment count (1 = never failed over);
                         //!< capped at kMaxJobAttempts

    /** Last published generation, for status. For a K-island job the
     *  counters are the sum over islandProgress, the generation and
     *  best fitness the highest any island reported. */
    core::GenerationStats progress;
    /** Each island's last published generation for a K-island job
     *  (island i at index i); empty otherwise. */
    std::vector<core::GenerationStats> islandProgress;

    Json result;        //!< terminal payload (Done/Canceled)
    std::string error;  //!< diagnostic for Failed
    std::vector<Json> events;  //!< ordered progress stream
};

/** Lease-machinery totals since construction (fleet observability;
 *  staleRejections counts the duplicate commits prevented). */
struct LeaseStats
{
    uint64_t assignments = 0;     //!< tryClaim() grants
    uint64_t renewals = 0;        //!< heartbeat/progress renewals
    uint64_t expirations = 0;     //!< leases swept past their deadline
    uint64_t requeues = 0;        //!< jobs returned to Queued
    uint64_t staleRejections = 0; //!< mutations quoting a dead lease
};

class JobQueue
{
  public:
    explicit JobQueue(AdmissionLimits limits) : limits_(limits) {}

    /** Admission-checked submission: returns the new job id, or the
     *  structured rejection. Never blocks. A non-empty @p requestId
     *  makes the submit idempotent: retrying the same id returns the
     *  originally assigned job id without enqueueing again. */
    std::variant<long, Rejection> submit(JobSpec spec,
                                         const std::string &requestId =
                                             "");

    /** Fleet admission posture, consulted by submit(): @p noWorkers
     *  rejects every submit with no_workers; @p degraded halves the
     *  effective queue depth and codes overflow rejections degraded. */
    void setFleetStatus(bool noWorkers, bool degraded);

    /** Re-insert a job recovered from the state dir (restart path):
     *  keeps its id and submission order; terminal jobs are stored
     *  for status/result queries, live ones are re-queued. */
    void restore(std::shared_ptr<Job> job);

    /** Wake every waiting tryClaim() and waitEvent(); tryClaim()
     *  returns nullptr from now on. */
    void close();

    /**
     * Cancel a job. Queued jobs go terminal immediately; running jobs
     * get their flag set and stop mid-generation (the worker publishes
     * the terminal state). @return false with @p why filled when the
     * job is unknown or already terminal.
     */
    bool cancel(long id, std::string *why);

    std::shared_ptr<Job> find(long id);
    std::vector<std::shared_ptr<Job>> list();
    size_t queuedCount();

    /** Append @p event to the job's log and wake subscribers. */
    void publish(Job &job, Json event);

    /** Move @p job to @p state and publish the state-change event.
     *  For Failed, @p error carries the diagnostic. */
    void setState(Job &job, JobState state,
                  const std::string &error = "");

    /** Update the progress mirror and publish a generation event. */
    void publishGeneration(Job &job,
                           const core::GenerationStats &gs);

    /**
     * Deliver the next event after index @p have to a subscriber.
     * Blocks until one exists. @return false when no further event
     * will come (terminal event already delivered, or queue closed).
     */
    bool waitEvent(long id, size_t have, Json *out);

    /** Store the terminal payload (call before setState()). */
    void setResult(Job &job, Json result);

    // ---- lease machinery (fleet mode) ----

    /**
     * Claim for a worker: picks the highest-priority, earliest-
     * submitted claimable job, marks it Running under a fresh lease
     * for @p worker, arms the deadline. @p leaseIdOut receives the
     * lease. With nothing claimable it waits until @p waitUntil for a
     * submit or requeue (the claim long-poll; the default does not
     * wait); nullptr when that passes or the queue is closed. A
     * K-island job is claimed whole, like any other.
     */
    std::shared_ptr<Job> tryClaim(const std::string &worker,
                                  double leaseSeconds,
                                  uint64_t *leaseIdOut,
                                  std::chrono::steady_clock::time_point
                                      waitUntil = {});

    /** Renew a lease (heartbeat or progress frame).
     *  @return false when the lease is stale — the job was re-assigned
     *  or went terminal; the worker must abandon it. @p cancelOut
     *  (optional) reports a pending cancel request the worker should
     *  honor. */
    bool renewLease(long id, uint64_t leaseId, double leaseSeconds,
                    bool *cancelOut);

    /** Validate a lease for a terminal commit (done frame). On success
     *  the lease is cleared and the job returned still in Running state
     *  (caller publishes the terminal transition); nullptr on a stale
     *  lease (the attempt must be discarded — duplication barrier). */
    std::shared_ptr<Job> completeLeased(long id, uint64_t leaseId);

    /** Sweep: requeue every leased Running job whose deadline passed.
     *  Jobs with a pending cancel go terminal Canceled instead, and
     *  jobs out of attempts (kMaxJobAttempts) go Failed.
     *  @return every swept id — re-queued AND terminated ones (the
     *  server persists the terminal results among them). */
    std::vector<long> requeueExpired();

    /** A worker's connection died: immediately requeue every job it
     *  holds a live lease on (faster than waiting for expiry). Ends
     *  jobs as requeueExpired() does and returns the same kind of ids. */
    std::vector<long> requeueOwnedBy(const std::string &worker);

    LeaseStats leaseStats();

    /** Snapshot a job's payload. @return false when the job is
     *  unknown; otherwise fills state, result (set by setResult(),
     *  Null before), error, and @p progress (optional) with its last
     *  published generation. */
    bool resultFor(long id, JobState *state, Json *result,
                   std::string *error,
                   core::GenerationStats *progress = nullptr);

    /** Locked wire summary; Null JSON when the job is unknown. */
    Json summaryFor(long id);
    /** Locked wire summaries of every job, in id order. */
    std::vector<Json> summaries();

    const AdmissionLimits &limits() const { return limits_; }

  private:
    /** Requeue (or cancel- or attempt-cap-terminate) a leased job;
     *  lock held. */
    void requeueLocked(Job &job);
    void pushStateEventLocked(Job &job);

    AdmissionLimits limits_;
    std::mutex mu_;
    std::condition_variable readyCv_;   //!< claim long-polls wait here
    std::condition_variable eventsCv_;  //!< subscribers wait here
    std::map<long, std::shared_ptr<Job>> jobs_;
    std::unordered_map<std::string, long> requestIds_;
    long nextId_ = 1;
    long nextSeq_ = 0;
    uint64_t nextLease_ = 1;
    bool closed_ = false;
    bool noWorkers_ = false;
    bool degraded_ = false;
    LeaseStats leaseStats_;
};

/** Build the wire summary object for one job (status/list replies).
 *  The caller must hold the queue lock (or own the job exclusively);
 *  prefer JobQueue::summaryFor() / summaries(). */
Json jobSummary(const Job &job);

} // namespace cirfix::service
