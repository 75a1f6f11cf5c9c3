#pragma once

/**
 * @file
 * Fleet roles on top of the repair daemon: a *coordinator* owns the
 * JobQueue and durable state dir and shards jobs to *workers* over the
 * transport; workers execute repair sessions and stream progress (and
 * engine snapshots) back.
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
 * to completion twice.
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
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/island.h"
#include "service/json.h"
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
    /** true: coordinator mode — K-island jobs are sharded, and
     *  submits with no local or live remote worker are rejected with
     *  no_workers. false: the classic daemon; its local workers run
     *  jobs (K-island ones whole) and remote workers are extra
     *  capacity. */
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

// ---------------------------------------------------------------------------
// Island-job orchestration (coordinator side)

/** Wire codec for fleet cache entries: entries ride the snapshot
 *  variant-blob format (with an empty patch — the patch is identified
 *  by its key, which travels in the parallel @p keysOut array). */
std::string encodeCacheEntries(
    const std::vector<std::pair<std::string, core::FitnessCache::Entry>>
        &entries,
    Json *keysOut);
std::vector<std::pair<std::string, core::FitnessCache::Entry>>
decodeCacheEntries(const Json &keys, const std::string &blob);

/** Quarantine records <-> JSON ([{key, outcome, error}]). */
Json encodeQuarantineRecords(
    const std::vector<std::pair<std::string, core::QuarantineEntry>>
        &records);
std::vector<std::pair<std::string, core::QuarantineEntry>>
decodeQuarantineRecords(const Json &j);

/**
 * Coordinator-side orchestration of one K-island job: owns the
 * migration ledger (the epoch barrier), the fleet-shared fitness
 * store, and the per-island digests that assemble into the job's
 * terminal payload. The coordinator creates one per sharded job and
 * drives it from the migrate / cache_sync / done handlers; the ledger
 * is persisted at every sealed epoch (and every done-mark) so a
 * coordinator restart replays the exchange history instead of
 * inventing a new one. A ledger that fails to decode restarts the job
 * from scratch — deterministic, so the final result is unchanged.
 */
class IslandCoordinator
{
  public:
    IslandCoordinator(core::IslandConfig cfg, std::string ledgerPath);

    enum class Recovery { Fresh, Restored, Corrupt };
    /** Try to restore the durable ledger; Corrupt means the caller
     *  must discard the job's shard snapshots and start over. */
    Recovery recover();

    core::MigrationLedger &ledger() { return ledger_; }
    core::SharedFitnessStore &store() { return store_; }
    const core::IslandConfig &config() const { return cfg_; }

    /** Handle a worker migrate frame (lease already validated):
     *  replay audits, elite submission + barrier poll. @return the
     *  reply payload (ok{wait} / migrants{stop, blob}). */
    Json handleMigrate(const Json &msg);
    /** Handle a worker cache_sync frame: publish + lookup. */
    Json handleCacheSync(const Json &msg);

    /** An island shard committed its done frame. */
    void shardDone(int island, const Json &digest, Json result,
                   const std::string &error);
    /** Settle islands that will never run (canceled before claim). */
    void shardReaped(int island);

    bool allDone();
    /** Assemble the terminal payload once allDone(): the winning
     *  island's result plus the islands block (fingerprint included).
     *  Returns Null and fills @p error when any shard failed. */
    Json assemble(uint64_t seed, std::string *error);

    /** Durably persist the ledger now (atomic rename). A no-op after
     *  retire(): a late shard frame racing the job's assembly must not
     *  resurrect the ledger file the assembly just removed. */
    void persist();
    void removeLedgerFile();
    /** Remove the ledger file and permanently disable persist().
     *  Called exactly once, when the assembled job goes terminal. */
    void retire();

  private:
    core::IslandConfig cfg_;
    std::string path_;
    core::MigrationLedger ledger_;
    core::SharedFitnessStore store_;
    std::mutex mu_;
    bool retired_ = false;  //!< job assembled; persist() disabled
    std::set<int> persistedEpochs_;  //!< epochs already durable
    std::map<int, Json> digests_;
    std::map<int, Json> results_;
    std::string failure_;  //!< first shard failure diagnostic
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
 * attempt's done frame: the daemon's workers use its state dir as
 * workDir, so their checkpoints are the coordinator's own copies.
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
        int island = -1;  //!< >= 0: island shard of a K-island job
    };

    bool exiting(const std::function<bool()> &shouldExit) const;
    /** One claim round-trip. @return false when no job was handed out
     *  (keep polling). @throws on transport failure. */
    bool claim(Conn &conn, Assignment *out);
    /** Execute one assignment — a whole job, or an island shard with
     *  blocking migrate barriers and cache_sync fitness sharing.
     *  Returns normally whether the job completed, was canceled, or
     *  the lease was lost. @throws only on unexpected local failures
     *  (not transport ones). */
    void execute(Conn &conn, const Assignment &a,
                 const std::function<bool()> &shouldExit);

    std::string snapshotPath(long id, int island) const;

    WorkerConfig cfg_;
    std::atomic<bool> stopRequested_{false};
    std::mutex statsMu_;
    WorkerStats stats_;
    bool greeted_ = false;  //!< a hello succeeded before (reconnects)
};

} // namespace cirfix::service
