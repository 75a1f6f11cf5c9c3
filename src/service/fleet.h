#pragma once

/**
 * @file
 * Fleet roles on top of the repair daemon: a *coordinator* owns the
 * JobQueue and durable state dir and leases whole jobs to *workers*
 * over the transport; workers execute repair sessions and stream
 * progress (and engine snapshots) back. A K-island job is a job like
 * any other: one worker runs all its islands in process
 * (core::runIslands) under one lease.
 *
 * Failure model, in one paragraph: every assignment is a lease
 * (jobqueue.h). A worker renews its lease with each progress frame and
 * with periodic heartbeats; a worker that dies, hangs, or partitions
 * misses its deadline and the coordinator re-queues the job, handing
 * the *coordinator-side* copy of its last generation snapshot to the
 * next claimant — which resumes bit-identically (the engine's existing
 * restart guarantee). A presumed-dead worker that comes back and tries
 * to commit gets lease_lost and discards the attempt. Net effect under
 * any combination of crashes and partitions: no job lost, no job run
 * to completion twice. A K-island job checkpoints into a per-island
 * directory that stays with its worker, so a remote worker's K-island
 * job that fails over restarts from generation 0: same fingerprint,
 * only the work is lost. The daemon's own workers share its state
 * dir, so a restarted daemon resumes theirs from those checkpoints.
 *
 * The Worker here is the one job executor: `cirfix worker` wraps it in
 * a process, and the daemon runs its local workers as in-process
 * Workers on socketpairs. Coordinator-side connection handling lives
 * in Server (the coordinator *is* the daemon, with remote execution
 * capacity registered in a FleetRegistry).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>

#include "service/transport.h"

namespace cirfix::service {

/** Coordinator-side fleet policy. */
struct FleetConfig
{
    /** Lease duration handed to workers; renewed by every progress or
     *  heartbeat frame. Shorter = faster failover, more chatter. */
    double leaseSeconds = 3.0;
    /** Worker count below which the coordinator degrades admission
     *  (halved queue depth, rejections coded degraded). */
    int minWorkers = 1;
    /** The admission posture and nothing else. true (`cirfix serve
     *  --min-workers N`, N >= 1): a submit with no local and no live
     *  remote worker is rejected with no_workers, and fewer live
     *  remote workers than minWorkers halve the queue depth
     *  (degraded). false (the default): admission ignores remote
     *  workers, which are extra capacity. Jobs are claimed and run the
     *  same way in both. */
    bool requireWorkers = false;
};

/** Live worker membership (one entry per worker *connection*; a
 *  reconnecting worker gets a fresh key so the old connection's leases
 *  can be requeued without touching the new one's). */
class FleetRegistry
{
  public:
    /** Register a connection; @return the unique worker key. Only a
     *  @p remote connection counts toward workerCount(): the server's
     *  own in-process workers are capacity it always has. */
    std::string workerConnected(const std::string &name, bool remote);
    void workerDisconnected(const std::string &key);
    int workerCount();

  private:
    std::mutex mu_;
    std::unordered_set<std::string> workers_;
    uint64_t nextKey_ = 1;
};

/** Worker-side knobs. */
struct WorkerConfig
{
    std::string coordinator;  //!< address string ("unix:…"/"tcp:…")
    std::string name = "worker";
    /** Dir for per-job snapshots (the daemon's own workers use its
     *  state dir). */
    std::string workDir;
    /** Long-poll budget per claim request. */
    double claimWaitSeconds = 0.5;
    /** Per-frame I/O deadline on the coordinator connection (must
     *  exceed claimWaitSeconds or claims would time out). */
    double ioTimeoutSeconds = 10.0;
    /** Reconnect policy after a transport failure. */
    RetryPolicy retry{/*maxAttempts=*/0x7fffffff,
                      /*connectTimeout=*/5.0,
                      /*initialDelay=*/0.05,
                      /*maxDelay=*/1.0,
                      /*multiplier=*/2.0,
                      /*jitterSeed=*/0x9e3779b97f4a7c15ull};
};

/** Worker-side observability (the chaos tests read it). */
struct WorkerStats
{
    uint64_t jobsCompleted = 0;  //!< done frames accepted
    uint64_t jobsAbandoned = 0;  //!< lease lost / link died mid-job
    uint64_t leasesLost = 0;     //!< lease_lost replies received
    uint64_t reconnects = 0;     //!< successful re-dials after the 1st
};

/**
 * A fleet worker: claims jobs from the coordinator, executes them with
 * the same session layer the daemon uses, streams per-generation
 * progress + snapshots, commits results under its lease. Transport
 * failures abandon the in-flight attempt (the engine stops at the next
 * generation boundary) — the coordinator's lease machinery decides who
 * finishes the job. `cirfix worker` dials a coordinator with run();
 * the daemon's own workers serve() one end of a socketpair.
 *
 * A checkpoint in workDir stays until the coordinator accepts the
 * attempt's done frame. The daemon's workers use its state dir as
 * workDir, and its hello reply says so (shared_state_dir): their
 * checkpoints are the coordinator's own copies, so they neither ship
 * nor receive snapshot bytes.
 */
class Worker
{
  public:
    explicit Worker(WorkerConfig cfg);

    /** Dial cfg.coordinator and serve() it, re-dialing with backoff
     *  after any transport failure; returns when @p shouldExit goes
     *  true (checked between frames and between generations). */
    void run(const std::function<bool()> &shouldExit);

    /** The worker side of one connection: hello, then claim and
     *  execute jobs until @p shouldExit goes true. cfg.workDir must
     *  exist. @throws on transport failure (the in-flight attempt is
     *  abandoned first). */
    void serve(Conn &conn, const std::function<bool()> &shouldExit);

    /** Ask a run() in another thread to wind down at the next check
     *  (compose with the shouldExit callback). */
    void requestStop() { stopRequested_.store(true); }
    bool stopRequested() const { return stopRequested_.load(); }

    WorkerStats stats();
    const WorkerConfig &config() const { return cfg_; }

  private:
    struct Assignment
    {
        long id = 0;
        uint64_t leaseId = 0;
        double leaseSeconds = 3.0;
        std::string specJson;
        std::string snapshot;
    };

    bool exiting(const std::function<bool()> &shouldExit) const;
    /** One claim round-trip. @return false when no job was handed out
     *  (keep polling). @throws on transport failure. */
    bool claim(Conn &conn, Assignment *out);
    /** Execute one assignment (a plain or a K-island job, whole).
     *  Returns normally whether the job completed, was canceled, or
     *  the lease was lost. @throws only on unexpected local failures
     *  (not transport ones). */
    void execute(Conn &conn, const Assignment &a,
                 const std::function<bool()> &shouldExit);

    std::string snapshotPath(long id) const;

    WorkerConfig cfg_;
    std::atomic<bool> stopRequested_{false};
    std::mutex statsMu_;
    WorkerStats stats_;
    bool greeted_ = false;  //!< a hello succeeded before (reconnects)
    /** The coordinator's hello said workDir is its state dir: its
     *  checkpoints are already where the coordinator keeps them. */
    bool sharedStateDir_ = false;
};

} // namespace cirfix::service
