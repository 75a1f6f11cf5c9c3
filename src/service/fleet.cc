#include "service/fleet.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/snapshot.h"
#include "service/protocol.h"
#include "service/session.h"

namespace cirfix::service {

namespace {

/** Epoch that generation count @p generations belongs to. */
int
epochOf(int generations, int interval)
{
    return interval > 0 ? (generations + interval - 1) / interval : 0;
}

} // namespace

// ---------------------------------------------------------------------------
// Cache-entry / quarantine wire codecs

std::string
encodeCacheEntries(
    const std::vector<std::pair<std::string, core::FitnessCache::Entry>>
        &entries,
    Json *keysOut)
{
    std::vector<core::Variant> carriers;
    carriers.reserve(entries.size());
    Json keys = Json::array();
    for (const auto &[key, entry] : entries) {
        core::Variant v;
        v.evaluated = true;
        v.valid = entry.valid;
        v.fit = entry.fit;
        v.trace = entry.trace;
        v.outcome = entry.outcome;
        v.error = entry.error;
        carriers.push_back(std::move(v));
        keys.push(key);
    }
    if (keysOut)
        *keysOut = std::move(keys);
    return core::encodeVariants(carriers);
}

std::vector<std::pair<std::string, core::FitnessCache::Entry>>
decodeCacheEntries(const Json &keys, const std::string &blob)
{
    std::vector<core::Variant> carriers = core::decodeVariants(blob);
    if (!keys.isArray() || keys.size() != carriers.size())
        throw std::runtime_error(
            "cache-entry key array does not match the entry blob");
    std::vector<std::pair<std::string, core::FitnessCache::Entry>> out;
    out.reserve(carriers.size());
    for (size_t i = 0; i < carriers.size(); ++i) {
        core::Variant &v = carriers[i];
        core::FitnessCache::Entry e;
        e.valid = v.valid;
        e.fit = v.fit;
        e.trace = std::move(v.trace);
        e.outcome = v.outcome;
        e.error = std::move(v.error);
        out.emplace_back(keys.items()[i].asString(), std::move(e));
    }
    return out;
}

Json
encodeQuarantineRecords(
    const std::vector<std::pair<std::string, core::QuarantineEntry>>
        &records)
{
    Json out = Json::array();
    for (const auto &[key, entry] : records) {
        Json r = Json::object();
        r["key"] = key;
        r["outcome"] = static_cast<int>(entry.outcome);
        if (!entry.error.empty())
            r["error"] = entry.error;
        out.push(std::move(r));
    }
    return out;
}

std::vector<std::pair<std::string, core::QuarantineEntry>>
decodeQuarantineRecords(const Json &j)
{
    std::vector<std::pair<std::string, core::QuarantineEntry>> out;
    if (!j.isArray())
        return out;
    for (const Json &r : j.items()) {
        core::QuarantineEntry e;
        e.outcome =
            static_cast<core::EvalOutcome>(r.num("outcome", 0));
        e.error = r.str("error");
        out.emplace_back(r.str("key"), std::move(e));
    }
    return out;
}

// ---------------------------------------------------------------------------
// IslandCoordinator

IslandCoordinator::IslandCoordinator(core::IslandConfig cfg,
                                     std::string ledgerPath)
    : cfg_(cfg), path_(std::move(ledgerPath)), ledger_(cfg)
{
    ledger_.attachQuarantineFilter([this](const std::string &key) {
        return store_.isQuarantined(key);
    });
}

IslandCoordinator::Recovery
IslandCoordinator::recover()
{
    if (path_.empty() || !std::filesystem::exists(path_))
        return Recovery::Fresh;
    std::string text = core::readFileOrEmpty(path_);
    if (!ledger_.decode(text))
        return Recovery::Corrupt;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[epoch, keys] : ledger_.broadcasts())
        persistedEpochs_.insert(epoch);
    return Recovery::Restored;
}

void
IslandCoordinator::persist()
{
    if (path_.empty())
        return;
    // Encode before taking mu_ (the ledger has its own lock); the
    // retired_ check and the write share one critical section so a
    // concurrent retire() can never lose to an in-flight persist.
    std::string text = ledger_.encode();
    std::lock_guard<std::mutex> lock(mu_);
    if (retired_)
        return;
    core::writeFileAtomic(path_, text);
}

void
IslandCoordinator::removeLedgerFile()
{
    if (!path_.empty())
        std::remove(path_.c_str());
}

void
IslandCoordinator::retire()
{
    std::lock_guard<std::mutex> lock(mu_);
    retired_ = true;
    removeLedgerFile();
}

Json
IslandCoordinator::handleMigrate(const Json &msg)
{
    int island = static_cast<int>(msg.num("island", -1));
    if (island < 0 || island >= cfg_.islands)
        return makeError(errc::kBadRequest,
                         "migrate frame names island " +
                             std::to_string(island) + " of a " +
                             std::to_string(cfg_.islands) +
                             "-island job");
    if (const Json *replay = msg.find("replay")) {
        // A resumed shard audits its imported-migrant history against
        // the sealed broadcasts; disagreements count elitesLost.
        ledger_.verifyReplay(island, migrantRecordsFromJson(*replay));
        Json ok = Json::object();
        ok["type"] = "ok";
        return ok;
    }
    int epoch = static_cast<int>(msg.num("epoch", 0));
    ledger_.submit(island, epoch,
                   core::decodeVariants(msg.str("elites")));
    core::MigrationLedger::Exchange ex = ledger_.poll(island, epoch);
    if (!ex.ready) {
        // Barrier still open: the worker re-polls by re-sending the
        // same frame (submit is idempotent per island+epoch). Unsealed
        // submissions need no durability — every live shard re-offers
        // its elites on each poll after a coordinator restart.
        Json wait = Json::object();
        wait["type"] = "ok";
        wait["wait"] = true;
        return wait;
    }
    bool persistNow = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        persistNow = persistedEpochs_.insert(epoch).second;
    }
    if (persistNow)
        persist();  // the seal (and its migrant set) must be durable
                    // before any island can inject from it
    Json reply = Json::object();
    reply["type"] = "migrants";
    reply["stop"] = ex.stop;
    reply["migrants"] = core::encodeVariants(ex.migrants);
    return reply;
}

Json
IslandCoordinator::handleCacheSync(const Json &msg)
{
    std::vector<std::pair<std::string, core::QuarantineEntry>>
        condemned;
    if (const Json *c = msg.find("condemn"))
        condemned = decodeQuarantineRecords(*c);
    if (const Json *pk = msg.find("publish_keys")) {
        store_.publish(decodeCacheEntries(*pk, msg.str("publish")),
                       condemned);
    } else if (!condemned.empty()) {
        store_.publish({}, condemned);
    }
    Json reply = Json::object();
    reply["type"] = "cache";
    if (const Json *lk = msg.find("lookup")) {
        std::vector<std::string> keys;
        for (const Json &k : lk->items())
            keys.push_back(k.asString());
        std::unordered_map<std::string, core::FitnessCache::Entry>
            hits;
        std::unordered_map<std::string, core::QuarantineEntry> quar;
        store_.lookup(keys, &hits, &quar);
        // Serialize in request-key order so replies are deterministic.
        std::vector<std::pair<std::string, core::FitnessCache::Entry>>
            hitList;
        std::vector<std::pair<std::string, core::QuarantineEntry>>
            quarList;
        for (const std::string &key : keys) {
            if (auto q = quar.find(key); q != quar.end())
                quarList.emplace_back(key, q->second);
            else if (auto h = hits.find(key); h != hits.end())
                hitList.emplace_back(key, h->second);
        }
        Json hitKeys;
        reply["hits"] = encodeCacheEntries(hitList, &hitKeys);
        reply["hit_keys"] = std::move(hitKeys);
        reply["quarantined"] = encodeQuarantineRecords(quarList);
    }
    return reply;
}

void
IslandCoordinator::shardDone(int island, const Json &digest,
                             Json result, const std::string &error)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error.empty() && failure_.empty())
            failure_ = "island " + std::to_string(island) +
                       " failed: " + error;
        digests_[island] = digest;
        results_[island] = std::move(result);
    }
    int generations =
        static_cast<int>(digest.num("generations", 0));
    ledger_.markDone(island,
                     epochOf(generations, cfg_.migrationInterval),
                     digest.flag("found"));
    persist();
}

void
IslandCoordinator::shardReaped(int island)
{
    ledger_.markDone(island, 0, false);
    persist();
}

bool
IslandCoordinator::allDone()
{
    return ledger_.allDone();
}

Json
IslandCoordinator::assemble(uint64_t seed, std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!failure_.empty()) {
        if (error)
            *error = failure_;
        return Json();
    }
    std::vector<core::IslandStats> islands;
    for (int i = 0; i < cfg_.islands; ++i) {
        auto it = digests_.find(i);
        if (it != digests_.end()) {
            islands.push_back(islandStatsFromDigest(it->second));
        } else {
            core::IslandStats st;  // reaped before it ever ran
            st.island = i;
            st.stopped = true;
            islands.push_back(st);
        }
    }
    auto [wIsland, wEpoch] = ledger_.winner();
    bool found = wIsland != -1;
    // The job's result payload is the winning island's; without a
    // winner, the best best-seen fitness (lowest index on ties) —
    // exactly core::runIslands()'s choice.
    int resultIsland = wIsland;
    if (!found) {
        resultIsland = 0;
        for (int i = 1; i < cfg_.islands; ++i)
            if (islands[static_cast<size_t>(i)].bestFitness >
                islands[static_cast<size_t>(resultIsland)].bestFitness)
                resultIsland = i;
    }
    core::IslandFingerprintInput in;
    in.seed = seed;
    in.config = cfg_;
    in.winnerIsland = found ? wIsland : -1;
    in.winnerEpoch = wEpoch;
    in.islands = islands;
    in.broadcasts = ledger_.broadcasts();
    uint64_t fp = core::islandFingerprint(in);
    Json result;
    if (auto it = results_.find(resultIsland); it != results_.end())
        result = it->second;
    else
        result = Json::object();
    result["islands"] = islandBlockJson(
        seed, cfg_, found, found ? wIsland : -1, wEpoch, islands,
        in.broadcasts, ledger_.stats(), fp);
    return result;
}

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
Worker::snapshotPath(long id, int island) const
{
    std::string base = cfg_.workDir + "/job-" + std::to_string(id);
    if (island >= 0)
        base += ".i" + std::to_string(island);
    return base + ".snap";
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
    out->island = static_cast<int>(reply.num("island", -1));
    return true;
}

void
Worker::execute(Conn &conn, const Assignment &a,
                const std::function<bool()> &shouldExit)
{
    JobSpec spec = jobSpecFromJson(Json::parse(a.specJson));
    std::string snapPath = snapshotPath(a.id, a.island);
    if (!a.snapshot.empty())
        core::writeFileAtomic(snapPath, a.snapshot);  // resume hand-off
    else
        std::remove(snapPath.c_str());  // never resume a stale attempt

    // The engine thread (progress, and a shard's migrate and
    // cache_sync frames) and the heartbeat thread share the
    // coordinator connection; each request/response exchange is atomic
    // under this mutex, so replies cannot cross.
    std::mutex connMu;
    std::atomic<bool> abandoned{false};  //!< lease lost or link dead
    std::atomic<bool> cancel{false};     //!< coordinator-relayed cancel
    std::atomic<bool> migStop{false};    //!< barrier handed out a stop
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
    /** A shard frame: leased, and naming the island it speaks for. */
    auto shardFrame = [&](const char *type) {
        Json req = leased(type);
        req["island"] = a.island;
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
        // so the coordinator can resume the job anywhere on failover.
        // An island run's stats name their island and epoch.
        Json reply;
        if (exchange(leased("progress", generationToJson(gs)), &reply,
                     core::readFileOrEmpty(snapPath)))
            handleLeaseReply(reply);
    };

    auto shouldStop = [&] {
        return abandoned.load(std::memory_order_relaxed) ||
               cancel.load(std::memory_order_relaxed) ||
               exiting(shouldExit);
    };

    SessionOutcome out;
    Json digest;
    bool stopped = false;
    if (a.island < 0) {
        out = runRepairJob(spec, snapPath, onGeneration, shouldStop,
                           cfg_.name);
        stopped = out.state == JobState::Canceled;
    } else {
        IslandShardHooks hooks;
        // The blocking half of the epoch barrier: offer elites, then
        // re-send the (idempotent) migrate frame until the coordinator
        // seals the epoch. Each poll also renews the lease.
        hooks.exchange = [&](int epoch,
                             std::vector<core::Variant> elites,
                             bool *stop) -> std::vector<core::Variant> {
            Json req = shardFrame("migrate");
            req["epoch"] = epoch;
            req["elites"] = core::encodeVariants(elites);
            for (;;) {
                if (shouldStop()) {
                    *stop = true;  // wind-down/cancel ends the wait; the
                    return {};     // commit rules below decide the fate
                }
                Json reply;
                if (!exchange(req, &reply)) {
                    *stop = true;
                    return {};
                }
                handleLeaseReply(reply);
                if (reply.str("type") == "migrants") {
                    if (reply.flag("stop")) {
                        migStop.store(true, std::memory_order_relaxed);
                        *stop = true;
                        return {};
                    }
                    return core::decodeVariants(reply.str("migrants"));
                }
                // "ok" with wait (or a lease error already handled):
                // barrier still open — some island has not reached
                // this epoch yet. Back off briefly and re-poll.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(25));
            }
        };
        hooks.replay =
            [&](const std::vector<core::MigrantRecord> &led) {
                Json req = shardFrame("migrate");
                req["replay"] = migrantRecordsToJson(led);
                Json reply;
                if (exchange(req, &reply))
                    handleLeaseReply(reply);
            };
        hooks.lookup =
            [&](const std::vector<std::string> &keys,
                std::unordered_map<std::string,
                                   core::FitnessCache::Entry> *hits,
                std::unordered_map<std::string, core::QuarantineEntry>
                    *quar) {
                if (keys.empty())
                    return;
                Json req = shardFrame("cache_sync");
                Json lk = Json::array();
                for (const std::string &k : keys)
                    lk.push(k);
                req["lookup"] = std::move(lk);
                Json reply;
                if (!exchange(req, &reply))
                    return;  // no sharing this round; search unchanged
                handleLeaseReply(reply);
                if (reply.str("type") != "cache")
                    return;
                const Json *hitKeys = reply.find("hit_keys");
                if (hitKeys && hits) {
                    for (auto &[key, entry] : decodeCacheEntries(
                             *hitKeys, reply.str("hits")))
                        hits->emplace(key, std::move(entry));
                }
                if (const Json *q = reply.find("quarantined");
                    q && quar) {
                    for (auto &[key, entry] :
                         decodeQuarantineRecords(*q))
                        quar->emplace(key, std::move(entry));
                }
            };
        hooks.publish =
            [&](const std::vector<std::pair<std::string,
                                            core::FitnessCache::Entry>>
                    &scored,
                const std::vector<
                    std::pair<std::string, core::QuarantineEntry>>
                    &condemned) {
                if (scored.empty() && condemned.empty())
                    return;
                Json req = shardFrame("cache_sync");
                if (!scored.empty()) {
                    Json keys;
                    req["publish"] = encodeCacheEntries(scored, &keys);
                    req["publish_keys"] = std::move(keys);
                }
                if (!condemned.empty())
                    req["condemn"] = encodeQuarantineRecords(condemned);
                Json reply;
                if (exchange(req, &reply))
                    handleLeaseReply(reply);
            };
        IslandShardOutcome shard =
            runIslandShard(spec, a.island, snapPath, hooks, onGeneration,
                           shouldStop, cfg_.name);
        out = std::move(shard.session);
        digest = std::move(shard.digest);
        stopped = shard.stopped;
    }

    {
        std::lock_guard<std::mutex> lock(hbMu);
        jobDone.store(true, std::memory_order_relaxed);
    }
    hbCv.notify_all();
    heartbeat.join();

    if (abandoned.load(std::memory_order_relaxed) ||
        (stopped && !migStop.load(std::memory_order_relaxed) &&
         !cancel.load(std::memory_order_relaxed))) {
        // Lease lost, link dead, or stopped because the *worker* is
        // winding down (not by a cancel or the barrier): this attempt
        // must not commit. The coordinator re-queues the job (now, or
        // at lease expiry) from its copy of the last checkpoint — for
        // an in-process worker that copy is snapPath itself, so the
        // file stays.
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.jobsAbandoned;
        return;
    }

    Json req = leased("done");
    if (a.island >= 0) {
        req["island"] = a.island;
        req["digest"] = std::move(digest);
    }
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
