#pragma once

/**
 * @file
 * The repair daemon: a stream-socket server multiplexing many repair
 * jobs over one process ("cirfix serve"), listening on a Unix-domain
 * or TCP address (transport.h). Every job, a K-island one included,
 * runs whole on one fleet Worker (fleet.h) that claims it under a
 * lease and streams progress and engine snapshots back. Remote workers
 * connect over the same listener; "cirfix serve --min-workers N" is the
 * same daemon with the stricter admission posture (FleetConfig).
 *
 * Thread model:
 *  - an accept thread poll()s the (non-blocking) listening socket plus
 *    an internal stop pipe, so shutdown never races an accept(); its
 *    poll timeout doubles as the lease-expiry sweep tick;
 *  - one thread per connection runs the handshake and request dispatch
 *    (a subscribe parks the connection on the job's event stream until
 *    the terminal event; a worker connection parks in its
 *    claim/progress/heartbeat/done loop);
 *  - N local worker threads each run a Worker on one end of a
 *    socketpair whose other end is a worker connection like a dialed
 *    one, so local jobs take the same leases, heartbeats and
 *    stale-commit checks as remote ones. They do not count as remote
 *    workers for the admission posture. With N = 0 the daemon only
 *    admits, and remote workers run every job.
 *
 * Durability: a job is persisted to the state dir at admission
 * (<dir>/job-<id>.json, atomic tmp+rename), checkpointed every
 * generation (<dir>/job-<id>.snap, received in progress frames; a
 * local worker's work dir is the state dir, so its engine writes that
 * file itself, and a K-island run's <dir>/job-<id>.snap.d/ lives there
 * too), and sealed with a result file at terminal
 * state (<dir>/job-<id>.result.json, with the last generation's
 * progress). start() replays the directory: terminal jobs come back
 * queryable with their final status, live jobs re-queue in their
 * original submission order and resume from their snapshot — so a
 * SIGKILLed daemon restarts with at most one generation of work lost
 * per job, and the resumed search is bit-identical to one that never
 * died. The same snapshot hand-off is what makes worker failover
 * lossless: whichever worker claims a re-queued job resumes exactly
 * where the dead one checkpointed. A remote worker's K-island
 * checkpoints are not shipped, so its failover restarts the job (same
 * result, lost work).
 */

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
    /** In-process workers (concurrent local repair sessions). 0 is
     *  admit-only: jobs queue but only run if remote workers claim
     *  them (coordinator mode) — also used by the admission tests. */
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
     *  local worker threads. @throws std::runtime_error on bind
     *  failures. */
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
    /** Live remote-worker connection count (local workers excluded). */
    int workerCount() { return fleet_.workerCount(); }

  private:
    void acceptLoop();
    /** Local worker @p index: a Worker serving one end of a
     *  socketpair; a broken pair is replaced until stop(). */
    void localWorkerLoop(int index);
    /** Handshake and dispatch @p conn on its own thread; @p local marks
     *  the server end of a local worker's socketpair. */
    void spawnConnection(std::shared_ptr<Conn> conn, bool local);
    void handleConnection(const std::shared_ptr<Conn> &conn, bool local);
    Json dispatch(const Json &msg, Conn &conn, bool &keep_open);

    // ---- coordinator side of the fleet protocol ----
    void handleWorkerConnection(Conn &conn, const std::string &key,
                                bool local);
    /** Answer one worker frame; @p snapshot is the frame's envelope
     *  bytes, @p replySnapshot receives the reply's (never for a
     *  @p local worker, which reads checkpoints in place). */
    Json dispatchWorker(const Json &msg, const std::string &snapshot,
                        const std::string &key, bool local,
                        std::string *replySnapshot);
    /** Recompute the admission posture from live worker counts. */
    void updateFleetStatus();

    // ---- persistence ----
    std::string jobFile(long id) const;
    std::string snapshotFile(long id) const;
    std::string resultFile(long id) const;
    void persistJob(const Job &job);
    /** Seal @p job's result file as @p state with @p error; the
     *  payload and progress are the queue's. Called before the state
     *  is published, so a terminal job always has its file. */
    void persistResult(const Job &job, JobState state,
                       const std::string &error);
    /** persistResult() for each of @p ids that is terminal (a cancel,
     *  or a requeue that ended the job). Never throws. */
    void persistTerminal(const std::vector<long> &ids);
    void recoverStateDir();

    ServerConfig cfg_;
    JobQueue queue_;
    FleetRegistry fleet_;
    std::mutex persistMu_;  //!< orders persistJob()'s writes
    Listener listener_;
    int stopPipe_[2] = {-1, -1};
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    std::thread acceptThread_;
    std::vector<std::thread> localWorkers_;

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
