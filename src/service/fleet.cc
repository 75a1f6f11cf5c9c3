#include "service/fleet.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <thread>

#include "core/snapshot.h"
#include "service/protocol.h"
#include "service/session.h"

namespace cirfix::service {

// ---------------------------------------------------------------------------
// FleetRegistry

std::string
FleetRegistry::workerConnected(const std::string &name, bool remote)
{
    std::lock_guard<std::mutex> lock(mu_);
    // The key embeds a connection serial so a reconnecting worker
    // never aliases its previous (possibly still-leased) incarnation.
    std::string key = (name.empty() ? "worker" : name) + "/" +
                      std::to_string(nextKey_++);
    if (remote)
        workers_.insert(key);
    return key;
}

void
FleetRegistry::workerDisconnected(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    workers_.erase(key);
}

int
FleetRegistry::workerCount()
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(workers_.size());
}

// ---------------------------------------------------------------------------
// Worker

Worker::Worker(WorkerConfig cfg) : cfg_(std::move(cfg)) {}

std::string
Worker::snapshotPath(long id) const
{
    return cfg_.workDir + "/job-" + std::to_string(id) + ".snap";
}

WorkerStats
Worker::stats()
{
    std::lock_guard<std::mutex> lock(statsMu_);
    return stats_;
}

bool
Worker::exiting(const std::function<bool()> &shouldExit) const
{
    return stopRequested() || (shouldExit && shouldExit());
}

bool
Worker::claim(Conn &conn, Assignment *out)
{
    Json req = Json::object();
    req["type"] = "claim";
    req["wait_ms"] =
        static_cast<long long>(cfg_.claimWaitSeconds * 1000.0);
    conn.writeFrame(req.dump());
    std::string payload;
    if (!conn.readFrame(&payload))
        throw ConnectionClosed("coordinator closed during claim");
    Json reply = unpackEnvelope(payload, &out->snapshot);
    std::string type = reply.str("type");
    if (type == "no_job")
        return false;
    if (type != "job")
        throw FrameError("unexpected claim reply '" + type + "'");
    out->id = reply.num("id", -1);
    out->leaseId = static_cast<uint64_t>(reply.num("lease_id", 0));
    out->leaseSeconds = reply.real("lease_seconds", 3.0);
    const Json *spec = reply.find("spec");
    if (out->id < 0 || out->leaseId == 0 || !spec)
        throw FrameError("malformed job frame from coordinator");
    out->specJson = spec->dump();
    return true;
}

void
Worker::execute(Conn &conn, const Assignment &a,
                const std::function<bool()> &shouldExit)
{
    JobSpec spec = jobSpecFromJson(Json::parse(a.specJson));
    std::string snapPath = snapshotPath(a.id);
    if (!sharedStateDir_) {
        if (!a.snapshot.empty())
            core::writeFileAtomic(snapPath, a.snapshot);  // resume hand-off
        else
            removeCheckpoint(snapPath);  // never resume a stale attempt
    }

    // The engine thread (progress) and the heartbeat thread share the
    // coordinator connection; each request/response exchange is atomic
    // under this mutex, so replies cannot cross.
    std::mutex connMu;
    std::atomic<bool> abandoned{false};  //!< lease lost or link dead
    std::atomic<bool> cancel{false};     //!< coordinator-relayed cancel
    std::atomic<bool> jobDone{false};    //!< stops the heartbeat thread

    auto exchange = [&](const Json &req, Json *reply,
                        const std::string &snapshot = {}) -> bool {
        std::lock_guard<std::mutex> lock(connMu);
        if (abandoned.load(std::memory_order_relaxed))
            return false;
        try {
            conn.writeFrame(packEnvelope(req, snapshot));
            std::string payload;
            if (!conn.readFrame(&payload))
                throw ConnectionClosed(
                    "coordinator closed mid-exchange");
            *reply = Json::parse(payload);
            return true;
        } catch (const std::exception &) {
            // Any transport damage mid-job: abandon the attempt and
            // let the lease decide the job's fate. Never guess.
            abandoned.store(true, std::memory_order_relaxed);
            return false;
        }
    };

    auto handleLeaseReply = [&](const Json &reply) {
        if (reply.str("type") == "error") {
            if (reply.str("code") == errc::kLeaseLost) {
                std::lock_guard<std::mutex> lock(statsMu_);
                ++stats_.leasesLost;
            }
            abandoned.store(true, std::memory_order_relaxed);
            return;
        }
        if (reply.flag("cancel"))
            cancel.store(true, std::memory_order_relaxed);
    };

    /** A frame quoting this attempt's lease. */
    auto leased = [&](const char *type, Json req = Json::object()) {
        req["type"] = type;
        req["id"] = a.id;
        req["lease_id"] = static_cast<long long>(a.leaseId);
        return req;
    };

    // Heartbeats keep the lease alive across generations that outlast
    // it (a renewal every leaseSeconds/3 tolerates two lost beats).
    std::mutex hbMu;
    std::condition_variable hbCv;
    std::thread heartbeat([&] {
        auto period = std::chrono::duration<double>(
            std::max(0.05, a.leaseSeconds / 3.0));
        std::unique_lock<std::mutex> lock(hbMu);
        while (!hbCv.wait_for(lock, period, [&] {
            return jobDone.load(std::memory_order_relaxed);
        })) {
            lock.unlock();
            Json reply;
            if (exchange(leased("heartbeat"), &reply))
                handleLeaseReply(reply);
            lock.lock();
        }
    });

    auto onGeneration = [&](const core::GenerationStats &gs) {
        // The checkpoint is durable before onGeneration fires; ship it
        // so the coordinator can resume the job anywhere on failover
        // (unless the coordinator already holds it: a shared state
        // dir). An island run's stats name their island and epoch; its
        // checkpoints live in a directory that is never shipped.
        Json reply;
        if (exchange(leased("progress", generationToJson(gs)), &reply,
                     sharedStateDir_ ? std::string()
                                     : core::readFileOrEmpty(snapPath)))
            handleLeaseReply(reply);
    };

    auto shouldStop = [&] {
        return abandoned.load(std::memory_order_relaxed) ||
               cancel.load(std::memory_order_relaxed) ||
               exiting(shouldExit);
    };

    SessionOutcome out =
        runRepairJob(spec, snapPath, onGeneration, shouldStop, cfg_.name);

    {
        std::lock_guard<std::mutex> lock(hbMu);
        jobDone.store(true, std::memory_order_relaxed);
    }
    hbCv.notify_all();
    heartbeat.join();

    if (abandoned.load(std::memory_order_relaxed) ||
        (out.state == JobState::Canceled &&
         !cancel.load(std::memory_order_relaxed))) {
        // Lease lost, link dead, or stopped because the *worker* is
        // winding down (not by a cancel): this attempt must not
        // commit. The coordinator re-queues the job (now, or at lease
        // expiry) from its copy of the last checkpoint — for a worker
        // sharing its state dir that copy is snapPath itself, so the
        // file stays.
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.jobsAbandoned;
        return;
    }

    Json req = leased("done");
    req["state"] = jobStateName(out.state);
    req["result"] = std::move(out.result);
    if (!out.error.empty())
        req["error"] = out.error;
    Json reply;
    if (!exchange(req, &reply))
        return;  // commit lost in transit; lease arbitration decides
    if (reply.str("type") == "error") {
        handleLeaseReply(reply);
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.jobsAbandoned;
        return;
    }
    removeCheckpoint(snapPath);  // the coordinator owns the outcome
    std::lock_guard<std::mutex> lock(statsMu_);
    ++stats_.jobsCompleted;
}

void
Worker::serve(Conn &conn, const std::function<bool()> &shouldExit)
{
    conn.setIoDeadline(cfg_.ioTimeoutSeconds + cfg_.claimWaitSeconds);
    conn.writeFrame(makeWorkerHello(cfg_.name).dump());
    std::string payload;
    if (!conn.readFrame(&payload))
        throw ConnectionClosed("coordinator closed at hello");
    Json hello = Json::parse(payload);
    if (hello.str("type") != "hello")
        throw FrameError("coordinator refused worker hello: " +
                         hello.str("message"));
    sharedStateDir_ = hello.flag("shared_state_dir");
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        if (greeted_)
            ++stats_.reconnects;
        greeted_ = true;
    }
    while (!exiting(shouldExit)) {
        Assignment a;
        if (claim(conn, &a))
            execute(conn, a, shouldExit);
    }
}

void
Worker::run(const std::function<bool()> &shouldExit)
{
    if (cfg_.workDir.empty())
        throw std::runtime_error("worker needs a work dir");
    std::filesystem::create_directories(cfg_.workDir);
    Address addr = Address::parse(cfg_.coordinator);
    while (!exiting(shouldExit)) {
        try {
            // Bounded attempts per round so a dead coordinator never
            // wedges the worker past its exit check.
            RetryPolicy round = cfg_.retry;
            round.maxAttempts = std::min(cfg_.retry.maxAttempts, 8);
            std::unique_ptr<Conn> conn = dialRetry(addr, round);
            serve(*conn, shouldExit);
            return;
        } catch (const std::exception &) {
            // No coordinator this round, or a transport failure
            // anywhere in serve(): re-dial. In-flight work was already
            // abandoned by execute()'s own error handling.
        }
    }
}

} // namespace cirfix::service
