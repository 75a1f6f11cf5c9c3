#include "service/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <poll.h>
#include <unistd.h>

#include "service/framing.h"
#include "service/session.h"

namespace cirfix::service {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void
sysError(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

void
writeFileAtomic(const std::string &path, const std::string &data)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("cannot write " + tmp);
        os.write(data.data(),
                 static_cast<std::streamsize>(data.size()));
        os.flush();
        if (!os)
            throw std::runtime_error("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename " + tmp + " to " +
                                 path);
    }
}

std::string
slurpFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::string
slurpFileOrEmpty(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return "";
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** How often the accept loop wakes with nothing to accept: this is
 *  the lease-expiry sweep tick, so failover latency is bounded by
 *  leaseSeconds + this. */
constexpr int kSweepTickMs = 100;

} // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), queue_(cfg_.limits)
{
    // Coordinator mode shards K-island jobs across workers; the
    // classic daemon runs them in-process (session.cc). Must be set
    // before recoverStateDir() so restored jobs rebuild their shards.
    queue_.setShardMode(cfg_.fleet.requireWorkers);
}

Server::~Server()
{
    stop();
}

std::string
Server::jobFile(long id) const
{
    return cfg_.stateDir + "/job-" + std::to_string(id) + ".json";
}

std::string
Server::snapshotFile(long id) const
{
    return cfg_.stateDir + "/job-" + std::to_string(id) + ".snap";
}

std::string
Server::resultFile(long id) const
{
    return cfg_.stateDir + "/job-" + std::to_string(id) +
           ".result.json";
}

std::string
Server::ledgerFile(long id) const
{
    return cfg_.stateDir + "/job-" + std::to_string(id) + ".ledger";
}

std::string
Server::shardSnapshotFile(long id, int island) const
{
    return cfg_.stateDir + "/job-" + std::to_string(id) + ".i" +
           std::to_string(island) + ".snap";
}

void
Server::persistJob(const Job &job)
{
    Json j = Json::object();
    j["id"] = job.id;
    j["seq"] = job.seq;
    j["spec"] = toJson(job.spec);
    if (!job.requestId.empty())
        j["request_id"] = job.requestId;
    if (!job.worker.empty())
        j["worker"] = job.worker;
    if (job.attempts > 0)
        j["attempts"] = job.attempts;
    writeFileAtomic(jobFile(job.id), j.dump());
}

void
Server::persistResult(const Job &job)
{
    JobState state = JobState::Failed;
    Json result;
    std::string error;
    if (!queue_.resultFor(job.id, &state, &result, &error))
        return;
    Json j = Json::object();
    j["id"] = job.id;
    j["state"] = jobStateName(state);
    j["result"] = std::move(result);
    j["error"] = error;
    writeFileAtomic(resultFile(job.id), j.dump());
}

void
Server::recoverStateDir()
{
    if (!fs::exists(cfg_.stateDir))
        return;
    std::vector<fs::path> jobFiles;
    for (const auto &entry : fs::directory_iterator(cfg_.stateDir)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("job-", 0) == 0 &&
            name.size() > 9 &&
            name.compare(name.size() - 5, 5, ".json") == 0 &&
            name.find(".result.") == std::string::npos)
            jobFiles.push_back(entry.path());
    }
    for (const fs::path &path : jobFiles) {
        try {
            Json j = Json::parse(slurpFile(path.string()));
            auto job = std::make_shared<Job>();
            job->id = j.num("id", -1);
            job->seq = j.num("seq", 0);
            if (job->id < 0)
                continue;
            const Json *spec = j.find("spec");
            if (!spec)
                continue;
            job->spec = jobSpecFromJson(*spec);
            job->requestId = j.str("request_id");
            job->worker = j.str("worker");
            job->attempts = static_cast<int>(j.num("attempts", 0));
            std::string rf = resultFile(job->id);
            if (fs::exists(rf)) {
                Json r = Json::parse(slurpFile(rf));
                job->state = jobStateFromName(r.str("state", "failed"));
                if (const Json *res = r.find("result"))
                    job->result = *res;
                job->error = r.str("error");
            } else {
                job->state = JobState::Queued;  // resumes via .snap
            }
            queue_.restore(std::move(job));
        } catch (const std::exception &) {
            // A torn/corrupt record (e.g. killed mid-first-write) is
            // skipped rather than wedging the daemon; its atomic-write
            // temp file never replaced a good one.
        }
    }
}

void
Server::start()
{
    if (started_)
        return;
    if (cfg_.listenAddress.empty() || cfg_.stateDir.empty())
        throw std::runtime_error(
            "server needs a listen address and a state dir");
    fs::create_directories(cfg_.stateDir);
    recoverStateDir();

    listener_ = Listener::bind(Address::parse(cfg_.listenAddress));
    if (::pipe(stopPipe_) != 0) {
        listener_.close();
        sysError("pipe");
    }

    stopping_.store(false);
    updateFleetStatus();
    started_ = true;
    acceptThread_ = std::thread(&Server::acceptLoop, this);
    for (int i = 0; i < cfg_.workers; ++i)
        workerThreads_.emplace_back(&Server::workerLoop, this);
}

std::string
Server::boundAddress() const
{
    return listener_.boundAddress().str();
}

void
Server::requestStop()
{
    if (stopPipe_[1] >= 0) {
        char b = 'q';
        [[maybe_unused]] ssize_t w = ::write(stopPipe_[1], &b, 1);
    }
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(stopMu_);
    stopCv_.wait(lock, [&] { return stopRequested_; });
}

void
Server::stop()
{
    if (!started_)
        return;
    stopping_.store(true);
    requestStop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();

    // Wake workers (idle ones return nullptr from pop) and ask running
    // engines to stop at their next shouldStop poll; their jobs stay
    // resumable — shutdown is not a cancel.
    queue_.close();
    for (std::thread &t : workerThreads_)
        t.join();
    workerThreads_.clear();

    // Unblock any connection thread parked in a read or a subscribe.
    // Copy the live connections out under the lock: each copy keeps
    // its Conn alive through the shutdown() call even if the owning
    // thread clears its slot concurrently, and a cleared slot's fd may
    // already be recycled — which is exactly why slots are cleared
    // *before* the Conn closes (never shutdown a stranger's fd).
    std::vector<std::shared_ptr<Conn>> live;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (const std::shared_ptr<Conn> &c : conns_)
            if (c)
                live.push_back(c);
    }
    for (const std::shared_ptr<Conn> &c : live)
        c->shutdown();
    live.clear();
    for (std::thread &t : connThreads_)
        t.join();
    {
        std::lock_guard<std::mutex> lock(connMu_);
        connThreads_.clear();
        conns_.clear();
    }

    for (int i = 0; i < 2; ++i)
        if (stopPipe_[i] >= 0) {
            ::close(stopPipe_[i]);
            stopPipe_[i] = -1;
        }
    started_ = false;
    {
        std::lock_guard<std::mutex> lock(stopMu_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Server::updateFleetStatus()
{
    int remote = fleet_.workerCount();
    int capacity = cfg_.workers + remote;
    bool noWorkers = cfg_.fleet.requireWorkers && capacity == 0;
    bool degraded = cfg_.fleet.requireWorkers && !noWorkers &&
                    remote < cfg_.fleet.minWorkers;
    queue_.setFleetStatus(noWorkers, degraded);
}

std::shared_ptr<IslandCoordinator>
Server::islandCoordinatorFor(const std::shared_ptr<Job> &job)
{
    if (job->spec.params.islands <= 1)
        return nullptr;
    std::lock_guard<std::mutex> lock(islandMu_);
    auto it = islandJobs_.find(job->id);
    if (it != islandJobs_.end())
        // May be the null tombstone of an assembled job: a late shard
        // frame must get "no coordinator", never a fresh one that
        // would re-create the ledger the assembly just removed.
        return it->second;
    auto coord = std::make_shared<IslandCoordinator>(
        islandConfigFromSpec(job->spec), ledgerFile(job->id));
    if (coord->recover() == IslandCoordinator::Recovery::Corrupt) {
        // An undecodable ledger restarts the job from scratch: drop it
        // and every shard snapshot. Determinism makes the restarted
        // search converge to the same result — only work is lost.
        coord->removeLedgerFile();
        for (int i = 0; i < job->spec.params.islands; ++i)
            std::remove(shardSnapshotFile(job->id, i).c_str());
        coord = std::make_shared<IslandCoordinator>(
            islandConfigFromSpec(job->spec), ledgerFile(job->id));
    }
    islandJobs_.emplace(job->id, coord);
    return coord;
}

void
Server::finishIslandJob(const std::shared_ptr<Job> &job,
                        const std::shared_ptr<IslandCoordinator>
                            &coord)
{
    {
        // The done handler and the sweep can both observe allDone();
        // whoever swaps the registry entry for the null tombstone
        // commits the job. The tombstone stays so a late shard frame
        // cannot resurrect a coordinator for the finished job.
        std::lock_guard<std::mutex> lock(islandMu_);
        auto it = islandJobs_.find(job->id);
        if (it == islandJobs_.end() || !it->second)
            return;
        it->second = nullptr;
    }
    std::string error;
    Json result = coord->assemble(job->spec.params.seed, &error);
    JobState state = JobState::Failed;
    if (error.empty()) {
        bool found = coord->ledger().winner().first != -1;
        state = !found && job->cancelRequested.load(
                              std::memory_order_relaxed)
                    ? JobState::Canceled
                    : JobState::Done;
        queue_.setResult(*job, std::move(result));
    }
    queue_.setState(*job, state, error);
    try {
        persistResult(*job);
    } catch (const std::exception &) {
    }
    // retire() removes the ledger file AND disables persist(), so a
    // shard_done/migrate persist racing this cleanup cannot write the
    // file back afterwards.
    coord->retire();
    for (int i = 0; i < job->spec.params.islands; ++i)
        std::remove(shardSnapshotFile(job->id, i).c_str());
}

void
Server::sweepIslandJobs()
{
    std::vector<std::pair<long, std::shared_ptr<IslandCoordinator>>>
        live;
    {
        std::lock_guard<std::mutex> lock(islandMu_);
        for (const auto &[id, coord] : islandJobs_)
            if (coord)  // skip tombstones of assembled jobs
                live.emplace_back(id, coord);
    }
    for (const auto &[id, coord] : live) {
        std::shared_ptr<Job> job = queue_.find(id);
        if (!job)
            continue;
        if (job->cancelRequested.load(std::memory_order_relaxed))
            for (int island : queue_.reapCanceledShards(*job))
                coord->shardReaped(island);
        if (coord->allDone())
            finishIslandJob(job, coord);
    }
}

void
Server::sweepLeases()
{
    sweepIslandJobs();
    for (long id : queue_.requeueExpired()) {
        // A requeue normally needs no persistence (the job file and
        // snapshot are already durable), but a cancel-while-leased
        // goes terminal here and must seal its result file.
        std::shared_ptr<Job> job = queue_.find(id);
        if (!job)
            continue;
        JobState state = JobState::Queued;
        Json result;
        std::string error;
        queue_.resultFor(id, &state, &result, &error);
        if (isTerminal(state)) {
            try {
                persistResult(*job);
            } catch (const std::exception &) {
            }
        }
    }
}

void
Server::acceptLoop()
{
    while (true) {
        pollfd fds[2] = {{listener_.fd(), POLLIN, 0},
                         {stopPipe_[0], POLLIN, 0}};
        int rc = ::poll(fds, 2, kSweepTickMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0) {
            sweepLeases();
            continue;
        }
        if (fds[1].revents) {
            // Stop requested: wake wait()ers and stop accepting.
            {
                std::lock_guard<std::mutex> lock(stopMu_);
                stopRequested_ = true;
            }
            stopCv_.notify_all();
            break;
        }
        if (!(fds[0].revents & POLLIN))
            continue;
        std::unique_ptr<Conn> accepted;
        try {
            accepted = listener_.accept();
        } catch (const std::exception &) {
            continue;
        }
        if (!accepted)
            continue;  // raced away (non-blocking accept)
        std::shared_ptr<Conn> conn(std::move(accepted));
        std::lock_guard<std::mutex> lock(connMu_);
        size_t slot = conns_.size();
        conns_.push_back(conn);
        connThreads_.emplace_back([this, conn, slot] {
            handleConnection(conn);
            std::lock_guard<std::mutex> l(connMu_);
            conns_[slot] = nullptr;  // last ref closes the fd
        });
    }
}

void
Server::workerLoop()
{
    while (std::shared_ptr<Job> job = queue_.pop())
        runJob(job);
}

void
Server::runJob(const std::shared_ptr<Job> &job)
{
    auto on_gen = [this, job](const core::GenerationStats &gs) {
        queue_.publishGeneration(*job, gs);
    };
    auto should_stop = [this, job] {
        return job->cancelRequested.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_relaxed);
    };
    SessionOutcome out = runRepairJob(job->spec, snapshotFile(job->id),
                                      on_gen, should_stop);
    if (out.state == JobState::Canceled &&
        !job->cancelRequested.load(std::memory_order_relaxed)) {
        // The engine stopped because the daemon is shutting down, not
        // because a client asked: the job stays resumable. Its state
        // file still says queued and its snapshot is durable.
        return;
    }
    queue_.setResult(*job, std::move(out.result));
    queue_.setState(*job, out.state, out.error);
    try {
        persistResult(*job);
    } catch (const std::exception &) {
        // The result stays queryable in-process; a restart will re-run
        // the job from its snapshot instead of replaying the result.
    }
}

void
Server::handleConnection(const std::shared_ptr<Conn> &conn)
{
    std::string payload;
    try {
        if (!conn->readFrame(&payload))
            return;
        std::string why;
        Json hello;
        try {
            hello = Json::parse(payload);
        } catch (const std::exception &e) {
            conn->writeFrame(
                makeError(errc::kBadRequest, e.what()).dump());
            return;
        }
        std::string role, workerName;
        if (!checkHello(hello, &why, &role, &workerName)) {
            conn->writeFrame(
                makeError(errc::kVersionMismatch, why).dump());
            return;
        }
        Json reply = makeHello();
        reply["server"] = kServerName;
        conn->writeFrame(reply.dump());

        if (role == "worker") {
            std::string key = fleet_.workerConnected(workerName);
            updateFleetStatus();
            try {
                handleWorkerConnection(*conn, key);
            } catch (const std::exception &) {
                // fall through to the unified cleanup below
            }
            fleet_.workerDisconnected(key);
            updateFleetStatus();
            // The link is the liveness signal: a vanished worker's
            // leases requeue immediately, not at lease expiry.
            for (long id : queue_.requeueOwnedBy(key))
                (void)id;
            return;
        }

        while (conn->readFrame(&payload)) {
            Json msg;
            try {
                msg = Json::parse(payload);
            } catch (const std::exception &e) {
                conn->writeFrame(
                    makeError(errc::kBadRequest, e.what()).dump());
                continue;
            }
            bool keep_open = true;
            Json resp = dispatch(msg, *conn, keep_open);
            if (!resp.isNull())
                conn->writeFrame(resp.dump());
            if (!keep_open)
                break;
        }
    } catch (const std::exception &) {
        // Connection-level failure (peer vanished mid-frame, write
        // error): drop the connection; jobs are unaffected.
    }
}

// ---------------------------------------------------------------------------
// Coordinator side of the fleet protocol

void
Server::handleWorkerConnection(Conn &conn, const std::string &key)
{
    std::string payload;
    while (conn.readFrame(&payload)) {
        Json msg;
        try {
            msg = Json::parse(payload);
        } catch (const std::exception &e) {
            conn.writeFrame(
                makeError(errc::kBadRequest, e.what()).dump());
            continue;
        }
        Json resp = dispatchWorker(msg, key);
        conn.writeFrame(resp.dump());
        if (stopping_.load(std::memory_order_relaxed))
            break;
    }
}

Json
Server::dispatchWorker(const Json &msg, const std::string &key)
{
    std::string type = msg.str("type");

    if (type == "claim") {
        long waitMs = msg.num("wait_ms", 0);
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(waitMs);
        std::shared_ptr<Job> job;
        uint64_t leaseId = 0;
        int island = -1;
        while (true) {
            job = queue_.tryClaim(key, cfg_.fleet.leaseSeconds,
                                  &leaseId, &island);
            if (job || stopping_.load(std::memory_order_relaxed) ||
                std::chrono::steady_clock::now() >= deadline)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (!job) {
            Json resp = Json::object();
            resp["type"] = "no_job";
            return resp;
        }
        try {
            persistJob(*job);  // records worker provenance + attempts
        } catch (const std::exception &) {
        }
        Json resp = Json::object();
        resp["type"] = "job";
        resp["id"] = job->id;
        resp["lease_id"] = static_cast<long long>(leaseId);
        resp["lease_seconds"] = cfg_.fleet.leaseSeconds;
        resp["spec"] = toJson(job->spec);
        if (island >= 0) {
            // An island shard: make sure the coordinator exists (and
            // has recovered its ledger) before the shard's first
            // migrate frame arrives.
            islandCoordinatorFor(job);
            resp["island"] = island;
            resp["snapshot"] = slurpFileOrEmpty(
                shardSnapshotFile(job->id, island));
        } else {
            // Empty for a fresh job; the dead worker's last durable
            // checkpoint on failover — the claimant resumes from it
            // bit-identically.
            resp["snapshot"] = slurpFileOrEmpty(snapshotFile(job->id));
        }
        return resp;
    }

    if (type == "progress") {
        long id = msg.num("id", -1);
        uint64_t leaseId = static_cast<uint64_t>(msg.num("lease_id", 0));
        bool cancel = false;
        if (!queue_.renewLease(id, leaseId, cfg_.fleet.leaseSeconds,
                               &cancel))
            return makeError(errc::kLeaseLost,
                             "job " + std::to_string(id) +
                                 " is no longer leased to you");
        std::shared_ptr<Job> job = queue_.find(id);
        if (!job)
            return makeError(errc::kUnknownJob,
                             "no job with id " + std::to_string(id));
        int island = static_cast<int>(msg.num("island", -1));
        std::string snapshot = msg.str("snapshot");
        if (!snapshot.empty()) {
            try {
                writeFileAtomic(island >= 0
                                    ? shardSnapshotFile(id, island)
                                    : snapshotFile(id),
                                snapshot);
            } catch (const std::exception &) {
                // Progress still counts; failover would just fall
                // back to an older checkpoint.
            }
        }
        core::GenerationStats gs;
        gs.generation = static_cast<int>(msg.num("generation", 0));
        gs.bestFitness = msg.real("best_fitness", -1.0);
        gs.fitnessEvals = msg.num("fitness_evals", 0);
        gs.invalidMutants = msg.num("invalid_mutants", 0);
        gs.totalMutants = msg.num("total_mutants", 0);
        gs.island = island;
        gs.epoch = static_cast<int>(msg.num("epoch", 0));
        gs.fleetCacheHits = msg.num("fleet_cache_hits", 0);
        queue_.publishGeneration(*job, gs);
        Json resp = Json::object();
        resp["type"] = "ok";
        resp["cancel"] = cancel;
        return resp;
    }

    if (type == "heartbeat") {
        long id = msg.num("id", -1);
        uint64_t leaseId = static_cast<uint64_t>(msg.num("lease_id", 0));
        bool cancel = false;
        if (!queue_.renewLease(id, leaseId, cfg_.fleet.leaseSeconds,
                               &cancel))
            return makeError(errc::kLeaseLost,
                             "job " + std::to_string(id) +
                                 " is no longer leased to you");
        Json resp = Json::object();
        resp["type"] = "ok";
        resp["cancel"] = cancel;
        return resp;
    }

    if (type == "migrate" || type == "cache_sync") {
        long id = msg.num("id", -1);
        uint64_t leaseId =
            static_cast<uint64_t>(msg.num("lease_id", 0));
        bool cancel = false;
        if (!queue_.renewLease(id, leaseId, cfg_.fleet.leaseSeconds,
                               &cancel))
            return makeError(errc::kLeaseLost,
                             "job " + std::to_string(id) +
                                 " is no longer leased to you");
        std::shared_ptr<Job> job = queue_.find(id);
        if (!job)
            return makeError(errc::kUnknownJob,
                             "no job with id " + std::to_string(id));
        std::shared_ptr<IslandCoordinator> coord =
            islandCoordinatorFor(job);
        if (!coord)
            return makeError(errc::kBadRequest,
                             "job " + std::to_string(id) +
                                 " is not an island job (or already "
                                 "assembled)");
        Json resp;
        try {
            resp = type == "migrate" ? coord->handleMigrate(msg)
                                     : coord->handleCacheSync(msg);
        } catch (const std::exception &e) {
            return makeError(errc::kInternal, e.what());
        }
        if (cancel)
            resp["cancel"] = true;
        return resp;
    }

    if (type == "done" && msg.num("island", -1) >= 0) {
        long id = msg.num("id", -1);
        uint64_t leaseId =
            static_cast<uint64_t>(msg.num("lease_id", 0));
        int island = -1;
        std::shared_ptr<Job> job =
            queue_.completeShardLeased(id, leaseId, &island);
        if (!job)
            return makeError(errc::kLeaseLost,
                             "job " + std::to_string(id) +
                                 " is no longer leased to you");
        std::shared_ptr<IslandCoordinator> coord =
            islandCoordinatorFor(job);
        if (coord) {
            JobState state = JobState::Failed;
            try {
                state = jobStateFromName(msg.str("state", "failed"));
            } catch (const std::exception &) {
            }
            const Json *digest = msg.find("digest");
            const Json *result = msg.find("result");
            std::string error;
            if (state == JobState::Failed) {
                error = msg.str("error");
                if (error.empty())
                    error = "island shard failed";
                // The job cannot succeed once any island failed: wind
                // the surviving shards down via the cancel relay.
                job->cancelRequested.store(true,
                                           std::memory_order_relaxed);
            }
            coord->shardDone(island,
                             digest && digest->isObject()
                                 ? *digest
                                 : Json::object(),
                             result ? *result : Json(), error);
            // Shard snapshots are kept until the whole job assembles:
            // a coordinator restart re-runs done shards from them
            // (their in-memory digests died with the coordinator).
            if (coord->allDone())
                finishIslandJob(job, coord);
        }
        Json resp = Json::object();
        resp["type"] = "ok";
        resp["id"] = id;
        return resp;
    }

    if (type == "done") {
        long id = msg.num("id", -1);
        uint64_t leaseId = static_cast<uint64_t>(msg.num("lease_id", 0));
        std::shared_ptr<Job> job = queue_.completeLeased(id, leaseId);
        if (!job)
            // The duplication barrier: stale attempts never commit.
            return makeError(errc::kLeaseLost,
                             "job " + std::to_string(id) +
                                 " is no longer leased to you");
        JobState state = JobState::Failed;
        try {
            state = jobStateFromName(msg.str("state", "failed"));
        } catch (const std::exception &) {
        }
        if (const Json *result = msg.find("result"))
            queue_.setResult(*job, *result);
        queue_.setState(*job, state, msg.str("error"));
        try {
            persistResult(*job);
        } catch (const std::exception &) {
        }
        std::remove(snapshotFile(id).c_str());
        Json resp = Json::object();
        resp["type"] = "ok";
        resp["id"] = id;
        return resp;
    }

    return makeError(errc::kBadRequest,
                     "unknown worker message type '" + type + "'");
}

// ---------------------------------------------------------------------------
// Client dispatch

Json
Server::dispatch(const Json &msg, Conn &conn, bool &keep_open)
{
    std::string type = msg.str("type");

    if (type == "submit") {
        JobSpec spec;
        try {
            const Json *body = msg.find("job");
            if (!body)
                throw std::runtime_error("submit needs a 'job' member");
            spec = jobSpecFromJson(*body);
        } catch (const std::exception &e) {
            return makeError(errc::kBadRequest, e.what());
        }
        std::string requestId = msg.str("request_id");
        auto admitted = queue_.submit(std::move(spec), requestId);
        if (const Rejection *rej = std::get_if<Rejection>(&admitted))
            return makeError(rej->code, rej->message);
        long id = std::get<long>(admitted);
        if (std::shared_ptr<Job> job = queue_.find(id)) {
            try {
                persistJob(*job);
            } catch (const std::exception &e) {
                // Not durable: admit it anyway but tell the client.
                Json resp = Json::object();
                resp["type"] = "submitted";
                resp["id"] = id;
                resp["durable"] = false;
                resp["warning"] = e.what();
                return resp;
            }
        }
        Json resp = Json::object();
        resp["type"] = "submitted";
        resp["id"] = id;
        resp["durable"] = true;
        return resp;
    }

    if (type == "status") {
        Json summary = queue_.summaryFor(msg.num("id", -1));
        if (summary.isNull())
            return makeError(errc::kUnknownJob,
                             "no job with id " +
                                 std::to_string(msg.num("id", -1)));
        Json resp = Json::object();
        resp["type"] = "status";
        resp["job"] = std::move(summary);
        LeaseStats ls = queue_.leaseStats();
        Json lease = Json::object();
        lease["assignments"] = static_cast<long long>(ls.assignments);
        lease["renewals"] = static_cast<long long>(ls.renewals);
        lease["expirations"] = static_cast<long long>(ls.expirations);
        lease["requeues"] = static_cast<long long>(ls.requeues);
        lease["stale_rejections"] =
            static_cast<long long>(ls.staleRejections);
        resp["lease_stats"] = std::move(lease);
        return resp;
    }

    if (type == "list") {
        Json resp = Json::object();
        resp["type"] = "list";
        Json jobs = Json::array();
        for (Json &s : queue_.summaries())
            jobs.push(std::move(s));
        resp["jobs"] = std::move(jobs);
        return resp;
    }

    if (type == "cancel") {
        long id = msg.num("id", -1);
        std::string why;
        bool existed = queue_.find(id) != nullptr;
        if (!queue_.cancel(id, &why))
            return makeError(existed ? errc::kBadRequest
                                     : errc::kUnknownJob,
                             why);
        if (std::shared_ptr<Job> job = queue_.find(id)) {
            JobState state = JobState::Queued;
            Json result;
            std::string error;
            queue_.resultFor(id, &state, &result, &error);
            if (isTerminal(state)) {
                try {
                    persistResult(*job);
                } catch (const std::exception &) {
                }
            }
        }
        Json resp = Json::object();
        resp["type"] = "ok";
        resp["id"] = id;
        return resp;
    }

    if (type == "result") {
        long id = msg.num("id", -1);
        JobState state = JobState::Queued;
        Json result;
        std::string error;
        if (!queue_.resultFor(id, &state, &result, &error))
            return makeError(errc::kUnknownJob,
                             "no job with id " + std::to_string(id));
        if (!isTerminal(state))
            return makeError(errc::kNotDone,
                             "job " + std::to_string(id) + " is " +
                                 jobStateName(state));
        Json resp = Json::object();
        resp["type"] = "result";
        resp["id"] = id;
        resp["state"] = jobStateName(state);
        resp["result"] = std::move(result);
        if (!error.empty())
            resp["error"] = error;
        return resp;
    }

    if (type == "subscribe") {
        long id = msg.num("id", -1);
        if (!queue_.find(id))
            return makeError(errc::kUnknownJob,
                             "no job with id " + std::to_string(id));
        // Stream the job's full ordered event history, then live
        // events, ending after the terminal state event.
        size_t have = 0;
        Json ev;
        while (queue_.waitEvent(id, have, &ev)) {
            conn.writeFrame(ev.dump());
            ++have;
        }
        Json done = Json::object();
        done["type"] = "end_of_stream";
        done["id"] = id;
        return done;
    }

    (void)keep_open;
    return makeError(errc::kBadRequest,
                     "unknown message type '" + type + "'");
}

} // namespace cirfix::service
