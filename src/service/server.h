#pragma once

/**
 * @file
 * The repair daemon: a stream-socket server multiplexing many repair
 * jobs over one process ("cirfix serve"), listening on a Unix-domain
 * or TCP address (transport.h). With fleet mode enabled it doubles as
 * the coordinator ("cirfix coordinator"): remote workers connect over
 * the same listener, claim jobs under leases, and stream progress and
 * engine snapshots back (fleet.h).
 *
 * Thread model:
 *  - an accept thread poll()s the (non-blocking) listening socket plus
 *    an internal stop pipe, so shutdown never races an accept(); its
 *    poll timeout doubles as the lease-expiry sweep tick;
 *  - one thread per connection runs the handshake and request dispatch
 *    (a subscribe parks the connection on the job's event stream until
 *    the terminal event; a worker connection parks in its
 *    claim/progress/heartbeat/done loop);
 *  - N worker threads pop jobs off the JobQueue and run repair
 *    sessions locally; admission control has already bounded what they
 *    see. A coordinator runs with N = 0 and only remote execution.
 *
 * Durability: a job is persisted to the state dir at admission
 * (<dir>/job-<id>.json, atomic tmp+rename), checkpointed every
 * generation (<dir>/job-<id>.snap — written by the engine for local
 * jobs, received in progress frames for remote ones), and sealed with
 * a result file at terminal state (<dir>/job-<id>.result.json).
 * start() replays the directory: terminal jobs come back queryable,
 * live jobs re-queue in their original submission order and resume
 * from their snapshot — so a SIGKILLed daemon restarts with at most
 * one generation of work lost per job, and the resumed search is
 * bit-identical to one that never died. The same snapshot hand-off is
 * what makes worker failover lossless: whichever worker claims a
 * re-queued job resumes exactly where the dead one checkpointed.
 */

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/fleet.h"
#include "service/jobqueue.h"
#include "service/transport.h"

namespace cirfix::service {

struct ServerConfig
{
    /** Listen address ("unix:PATH" / "tcp:host:port" / bare Unix
     *  socket path). TCP port 0 binds an ephemeral port — read it back
     *  with Server::boundAddress(). */
    std::string listenAddress;
    std::string stateDir;
    /** Concurrent local repair sessions. 0 is admit-only: jobs queue
     *  but only run if remote workers claim them (coordinator mode)
     *  — also used by the admission tests. */
    int workers = 1;
    AdmissionLimits limits;
    FleetConfig fleet;
};

class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket, recover the state dir, launch the accept and
     *  worker threads. @throws std::runtime_error on bind failures. */
    void start();

    /** Graceful shutdown: stop accepting, unblock every connection,
     *  ask running engines to stop at the next poll, join everything.
     *  Running jobs stay re-queueable (they are not canceled) and
     *  resume on the next start(). Idempotent. */
    void stop();

    /** Block until requestStop() is called (signal handlers use it). */
    void wait();

    /** Async-signal-safe stop trigger (writes one byte to the stop
     *  pipe); the accept thread then drives the actual stop(). */
    void requestStop();

    JobQueue &queue() { return queue_; }
    const ServerConfig &config() const { return cfg_; }
    /** Actual listen address after start() (ephemeral port resolved). */
    std::string boundAddress() const;
    /** Live remote-worker connection count. */
    int workerCount() { return fleet_.workerCount(); }

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(const std::shared_ptr<Conn> &conn);
    Json dispatch(const Json &msg, Conn &conn, bool &keep_open);
    void runJob(const std::shared_ptr<Job> &job);

    // ---- coordinator side of the fleet protocol ----
    void handleWorkerConnection(Conn &conn, const std::string &key);
    Json dispatchWorker(const Json &msg, const std::string &key);
    /** Recompute the admission posture from live worker counts. */
    void updateFleetStatus();
    /** Persist terminal states minted by the lease sweep. */
    void sweepLeases();

    // ---- island-job orchestration (shard mode) ----
    std::string ledgerFile(long id) const;
    std::string shardSnapshotFile(long id, int island) const;
    /** Find-or-create (and crash-recover) the coordinator of a
     *  sharded job; nullptr for plain jobs. */
    std::shared_ptr<IslandCoordinator>
    islandCoordinatorFor(const std::shared_ptr<Job> &job);
    /** Assemble + commit a sharded job's terminal state (idempotent —
     *  the done handler and the sweep may race here). */
    void finishIslandJob(const std::shared_ptr<Job> &job,
                         const std::shared_ptr<IslandCoordinator>
                             &coord);
    /** Settle canceled island jobs whose unleased shards will never
     *  run; assemble any job that became allDone. */
    void sweepIslandJobs();

    // ---- persistence ----
    std::string jobFile(long id) const;
    std::string snapshotFile(long id) const;
    std::string resultFile(long id) const;
    void persistJob(const Job &job);
    void persistResult(const Job &job);
    void recoverStateDir();

    ServerConfig cfg_;
    JobQueue queue_;
    FleetRegistry fleet_;
    std::mutex islandMu_;
    /** Live coordinators of sharded jobs, keyed by job id. */
    std::map<long, std::shared_ptr<IslandCoordinator>> islandJobs_;
    Listener listener_;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    std::thread acceptThread_;
    std::vector<std::thread> workerThreads_;

    std::mutex connMu_;
    std::vector<std::thread> connThreads_;
    /** Slot-per-connection; a finished connection clears its slot
     *  under connMu_ *before* the Conn is destroyed, so stop() can
     *  never shutdown() a recycled fd number. */
    std::vector<std::shared_ptr<Conn>> conns_;

    std::mutex stopMu_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
};

} // namespace cirfix::service
