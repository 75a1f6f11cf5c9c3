#include "service/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/snapshot.h"
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

/** How often the accept loop wakes with nothing to accept: this is
 *  the lease-expiry sweep tick, so failover latency is bounded by
 *  leaseSeconds + this. */
constexpr int kSweepTickMs = 100;

} // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), queue_(cfg_.limits)
{}

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

void
Server::persistJob(const Job &job)
{
    // The submit that admits a job and the claim that leases it both
    // persist it, at once when a worker is waiting. One writer at a
    // time, each reading the provenance under the queue lock, so the
    // last record written carries the newest.
    std::lock_guard<std::mutex> lock(persistMu_);
    Json summary = queue_.summaryFor(job.id);
    Json j = Json::object();
    j["id"] = job.id;
    j["seq"] = job.seq;
    j["spec"] = toJson(job.spec);
    if (!job.requestId.empty())
        j["request_id"] = job.requestId;
    for (const char *key : {"worker", "attempts"})
        if (const Json *v = summary.find(key))
            j[key] = *v;
    core::writeFileAtomic(jobFile(job.id), j.dump());
}

void
Server::persistResult(const Job &job, JobState state,
                      const std::string &error)
{
    JobState current = JobState::Failed;
    Json result;
    std::string ignored;
    core::GenerationStats progress;
    if (!queue_.resultFor(job.id, &current, &result, &ignored, &progress))
        return;
    Json j = Json::object();
    j["id"] = job.id;
    j["state"] = jobStateName(state);
    j["result"] = std::move(result);
    j["error"] = error;
    j["progress"] = generationToJson(progress);
    // A K-island job's per-island progress, so that its restored
    // status still lists islands whose counters sum to the job's.
    Json summary = queue_.summaryFor(job.id);
    if (const Json *islands = summary.find("islands"))
        j["islands"] = *islands;
    core::writeFileAtomic(resultFile(job.id), j.dump());
}

void
Server::persistTerminal(const std::vector<long> &ids)
{
    for (long id : ids) {
        std::shared_ptr<Job> job = queue_.find(id);
        JobState state = JobState::Queued;
        Json result;
        std::string error;
        if (!job || !queue_.resultFor(id, &state, &result, &error) ||
            !isTerminal(state))
            continue;
        try {
            persistResult(*job, state, error);
        } catch (const std::exception &) {
        }
    }
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
            Json j = Json::parse(core::readFile(path.string()));
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
                Json r = Json::parse(core::readFile(rf));
                job->state = jobStateFromName(r.str("state", "failed"));
                if (const Json *res = r.find("result"))
                    job->result = *res;
                job->error = r.str("error");
                if (const Json *p = r.find("progress"))
                    job->progress = generationFromJson(*p);
                if (const Json *islands = r.find("islands"))
                    for (const Json &each : islands->items())
                        job->islandProgress.push_back(
                            generationFromJson(each));
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
        localWorkers_.emplace_back(&Server::localWorkerLoop, this, i);
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

    // Wake claim long-polls (they answer no_job from now on); running
    // local engines stop at their next shouldStop poll and abandon
    // their attempts, so their jobs stay resumable — shutdown is not a
    // cancel. Joined first, local workers open no connection below.
    queue_.close();
    for (std::thread &t : localWorkers_)
        t.join();
    localWorkers_.clear();

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
            // A requeue needs no persistence (the job file and
            // snapshot are already durable); a job the sweep ends
            // (canceled while leased, or out of attempts) does.
            persistTerminal(queue_.requeueExpired());
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
        if (accepted)  // else raced away (non-blocking accept)
            spawnConnection(std::move(accepted), /*local=*/false);
    }
}

void
Server::spawnConnection(std::shared_ptr<Conn> conn, bool local)
{
    std::lock_guard<std::mutex> lock(connMu_);
    size_t slot = conns_.size();
    conns_.push_back(conn);
    connThreads_.emplace_back([this, conn, slot, local] {
        handleConnection(conn, local);
        std::lock_guard<std::mutex> l(connMu_);
        conns_[slot] = nullptr;  // last ref closes the fd
    });
}

void
Server::localWorkerLoop(int index)
{
    WorkerConfig wc;
    wc.name = "local-" + std::to_string(index);
    // The state dir: the engine's checkpoint is the daemon's own
    // job-<id>.snap, and an in-process K-island run keeps its
    // job-<id>.snap.d/ there for a restarted daemon to resume.
    wc.workDir = cfg_.stateDir;
    Worker worker(wc);
    auto exiting = [this] {
        return stopping_.load(std::memory_order_relaxed);
    };
    while (!exiting()) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) !=
            0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            continue;
        }
        Conn mine(fds[0]);
        spawnConnection(std::make_shared<Conn>(fds[1]), /*local=*/true);
        try {
            worker.serve(mine, exiting);
        } catch (const std::exception &) {
            // The link broke: the attempt in flight was abandoned and
            // its lease requeues when the server end sees the close.
        }
    }
}

void
Server::handleConnection(const std::shared_ptr<Conn> &conn, bool local)
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
        if (role == "worker" && local)
            // The worker's work dir is this state dir: its checkpoints
            // are already ours, so no snapshot bytes cross the pair.
            reply["shared_state_dir"] = true;
        conn->writeFrame(reply.dump());

        if (role == "worker") {
            std::string key = fleet_.workerConnected(workerName, !local);
            updateFleetStatus();
            try {
                handleWorkerConnection(*conn, key, local);
            } catch (const std::exception &) {
                // fall through to the unified cleanup below
            }
            fleet_.workerDisconnected(key);
            updateFleetStatus();
            // The link is the liveness signal: a vanished worker's
            // leases requeue immediately, not at lease expiry.
            persistTerminal(queue_.requeueOwnedBy(key));
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
Server::handleWorkerConnection(Conn &conn, const std::string &key,
                               bool local)
{
    std::string payload, snapshot;
    while (conn.readFrame(&payload)) {
        Json msg;
        try {
            msg = unpackEnvelope(payload, &snapshot);
        } catch (const std::exception &e) {
            conn.writeFrame(
                makeError(errc::kBadRequest, e.what()).dump());
            continue;
        }
        std::string replySnapshot;
        Json resp =
            dispatchWorker(msg, snapshot, key, local, &replySnapshot);
        conn.writeFrame(packEnvelope(resp, replySnapshot));
        if (stopping_.load(std::memory_order_relaxed))
            break;
    }
}

Json
Server::dispatchWorker(const Json &msg, const std::string &snapshot,
                       const std::string &key, bool local,
                       std::string *replySnapshot)
{
    std::string type = msg.str("type");

    if (type == "claim") {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(msg.num("wait_ms", 0));
        uint64_t leaseId = 0;
        std::shared_ptr<Job> job = queue_.tryClaim(
            key, cfg_.fleet.leaseSeconds, &leaseId, deadline);
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
        // Empty for a fresh job; the dead worker's last durable
        // checkpoint on failover — the claimant resumes from it
        // bit-identically. A local worker reads it in place.
        if (!local)
            *replySnapshot = core::readFileOrEmpty(snapshotFile(job->id));
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
        if (!snapshot.empty()) {
            try {
                core::writeFileAtomic(snapshotFile(id), snapshot);
            } catch (const std::exception &) {
                // Progress still counts; failover would just fall
                // back to an older checkpoint.
            }
        }
        queue_.publishGeneration(*job, generationFromJson(msg));
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
        // Durable first, published last: a client that sees the
        // terminal state finds the result file and no checkpoint.
        if (const Json *result = msg.find("result"))
            queue_.setResult(*job, *result);
        try {
            persistResult(*job, state, msg.str("error"));
        } catch (const std::exception &) {
        }
        removeCheckpoint(snapshotFile(id));
        queue_.setState(*job, state, msg.str("error"));
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
        persistTerminal({id});
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
