#include "core/island.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/snapshot.h"

namespace cirfix::core {

uint64_t
deriveIslandSeed(uint64_t seed, int island)
{
    if (island <= 0)
        return seed;  // island 0 draws the plain run's exact stream
    // splitmix64 of (seed, island): well-distributed, stable across
    // platforms, and never the identity for island > 0.
    uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                            static_cast<uint64_t>(island);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

EngineConfig
deriveIslandEngineConfig(const EngineConfig &base, const IslandConfig &ic,
                         int island)
{
    EngineConfig cfg = base;
    cfg.seed = deriveIslandSeed(base.seed, island);
    cfg.islandIndex = island;
    cfg.islandCount = ic.islands;
    // A 1-island run carries island provenance but never migrates:
    // it must equal a plain run bit for bit.
    cfg.migrationInterval = ic.islands > 1 ? ic.migrationInterval : 0;
    cfg.onMigration = nullptr;
    cfg.fleetLookup = nullptr;
    cfg.fleetPublish = nullptr;
    return cfg;
}

namespace {

/** Strict total order for elite/migrant ranking: fitness descending,
 *  patch key ascending. Schedule-independent by construction. */
bool
rankLess(const std::pair<std::string, const Variant *> &a,
         const std::pair<std::string, const Variant *> &b)
{
    if (a.second->fit.fitness != b.second->fit.fitness)
        return a.second->fit.fitness > b.second->fit.fitness;
    return a.first < b.first;
}

} // namespace

std::string
hexDouble(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", d);
    return buf;
}

std::vector<Variant>
selectElites(const std::vector<Variant> &popn, int n)
{
    std::vector<std::pair<std::string, const Variant *>> ranked;
    ranked.reserve(popn.size());
    for (const Variant &v : popn)
        if (v.evaluated && v.valid)
            ranked.emplace_back(v.patch.key(), &v);
    std::sort(ranked.begin(), ranked.end(), rankLess);
    std::vector<Variant> out;
    for (const auto &[key, v] : ranked) {
        if (static_cast<int>(out.size()) >= n)
            break;
        out.push_back(*v);
    }
    return out;
}

std::vector<Variant>
selectMigrants(
    const std::vector<std::vector<Variant>> &exports,
    const std::function<bool(const std::string &)> &isQuarantined,
    MigrationStats *stats)
{
    std::vector<std::pair<std::string, const Variant *>> ranked;
    for (const auto &ex : exports) {
        if (stats)
            stats->elitesExported += static_cast<long>(ex.size());
        for (const Variant &v : ex)
            ranked.emplace_back(v.patch.key(), &v);
    }
    std::sort(ranked.begin(), ranked.end(), rankLess);
    std::vector<Variant> out;
    std::vector<std::string> seen;
    for (const auto &[key, v] : ranked) {
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            continue;  // same patch exported by several islands
        seen.push_back(key);
        if (isQuarantined && isQuarantined(key))
            continue;  // condemned keys never migrate
        out.push_back(*v);
    }
    if (stats) {
        stats->migrantsBroadcast += static_cast<long>(out.size());
        // Invariant check, not dedup: the loop above must already have
        // made the broadcast duplicate-free.
        std::vector<std::string> keys;
        for (const Variant &v : out)
            keys.push_back(v.patch.key());
        std::sort(keys.begin(), keys.end());
        stats->migrantDuplicates += static_cast<long>(
            keys.size() -
            static_cast<size_t>(std::distance(
                keys.begin(),
                std::unique(keys.begin(), keys.end()))));
    }
    return out;
}

std::vector<std::string>
injectMigrants(std::vector<Variant> *popn,
               const std::vector<Variant> &migrants, int popSize)
{
    if (migrants.empty())
        return {};
    std::vector<std::string> local;
    local.reserve(popn->size());
    for (const Variant &v : *popn)
        local.push_back(v.patch.key());
    std::vector<std::string> appended;
    for (const Variant &m : migrants) {
        std::string key = m.patch.key();
        if (std::find(local.begin(), local.end(), key) != local.end())
            continue;  // already bred (or received) here
        local.push_back(key);
        appended.push_back(key);
        popn->push_back(m);
    }
    // Stable: locals precede migrants at equal fitness, migrants keep
    // broadcast rank — the merged order is a pure function of the
    // inputs, never of scores below the truncation cutoff.
    std::stable_sort(popn->begin(), popn->end(),
                     [](const Variant &a, const Variant &b) {
                         return a.fit.fitness > b.fit.fitness;
                     });
    if (static_cast<int>(popn->size()) > popSize)
        popn->resize(static_cast<size_t>(popSize));
    std::vector<std::string> survived;
    for (const Variant &v : *popn) {
        std::string key = v.patch.key();
        if (std::find(appended.begin(), appended.end(), key) !=
            appended.end())
            survived.push_back(key);
    }
    return survived;
}

// ------------------------------------------------ SharedFitnessStore

void
SharedFitnessStore::publish(
    const std::vector<std::pair<std::string, FitnessCache::Entry>>
        &scored,
    const std::vector<std::pair<std::string, QuarantineEntry>>
        &condemned)
{
    std::lock_guard<std::mutex> lock(mu_);
    // First writer wins (the scores are exact anyway); try_emplace
    // builds no node for a key already present.
    for (const auto &[key, entry] : scored)
        cache_.try_emplace(key, entry);
    for (const auto &[key, entry] : condemned)
        quarantine_.try_emplace(key, entry);
}

void
SharedFitnessStore::lookup(
    const std::vector<std::string> &keys,
    std::unordered_map<std::string, FitnessCache::Entry> *cacheHits,
    std::unordered_map<std::string, QuarantineEntry> *quarantineHits)
    const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string &key : keys) {
        if (auto q = quarantine_.find(key); q != quarantine_.end()) {
            if (quarantineHits)
                quarantineHits->emplace(key, q->second);
            continue;
        }
        if (auto c = cache_.find(key); c != cache_.end())
            if (cacheHits)
                cacheHits->emplace(key, c->second);
    }
}

bool
SharedFitnessStore::isQuarantined(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantine_.count(key) != 0;
}

size_t
SharedFitnessStore::cacheSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
}

size_t
SharedFitnessStore::quarantineSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantine_.size();
}

// -------------------------------------------------- MigrationLedger

MigrationLedger::MigrationLedger(
    IslandConfig cfg,
    std::function<bool(const std::string &)> isQuarantined)
    : cfg_(cfg), isQuarantined_(std::move(isQuarantined))
{
}

void
MigrationLedger::submit(int island, int epoch,
                        std::vector<Variant> elites)
{
    std::lock_guard<std::mutex> lock(mu_);
    EpochState &st = epochs_[epoch];
    auto prior = st.submissions.find(island);
    if (prior != st.submissions.end()) {
        // Resumed re-export. A deterministic island re-derives the
        // identical elite set; anything else means an elite was lost
        // (or fabricated) across the crash.
        auto keysOf = [](const std::vector<Variant> &vs) {
            std::vector<std::string> ks;
            for (const Variant &v : vs)
                ks.push_back(v.patch.key());
            return ks;
        };
        if (keysOf(prior->second) != keysOf(elites))
            ++stats_.elitesLost;
        return;  // first submission already fed (or will feed) the merge
    }
    st.submissions.emplace(island, std::move(elites));
    sealIfReadyLocked(epoch);
}

void
MigrationLedger::markDone(int island, int finalEpoch, bool found)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (doneAt_.count(island))
        return;
    doneAt_.emplace(island, finalEpoch);
    if (found) {
        // Lexicographic min (epoch, island): sealed epochs make this
        // final (see class comment).
        if (winnerIsland_ == -1 || finalEpoch < winnerEpoch_ ||
            (finalEpoch == winnerEpoch_ && island < winnerIsland_)) {
            winnerIsland_ = island;
            winnerEpoch_ = finalEpoch;
        }
    }
    // A done-mark can complete any pending barrier.
    for (auto &[epoch, st] : epochs_)
        if (!st.sealed)
            sealIfReadyLocked(epoch);
}

void
MigrationLedger::sealIfReadyLocked(int epoch)
{
    EpochState &st = epochs_[epoch];
    if (st.sealed)
        return;
    for (int i = 0; i < cfg_.islands; ++i)
        if (!st.submissions.count(i) && !doneAt_.count(i))
            return;
    std::vector<std::vector<Variant>> exports;
    for (int i = 0; i < cfg_.islands; ++i) {
        auto it = st.submissions.find(i);
        if (it != st.submissions.end())
            exports.push_back(it->second);
    }
    st.migrants = selectMigrants(exports, isQuarantined_, &stats_);
    st.migrantKeys.clear();
    for (const Variant &v : st.migrants)
        st.migrantKeys.push_back(v.patch.key());
    st.sealed = true;
    sealed_.notify_all();
}

MigrationLedger::Exchange
MigrationLedger::exchangeLocked(int epoch) const
{
    Exchange ex;
    auto it = epochs_.find(epoch);
    if (it == epochs_.end() || !it->second.sealed)
        return ex;
    ex.ready = true;
    ex.stop = winnerIsland_ != -1 && winnerEpoch_ <= epoch;
    ex.migrants = it->second.migrants;
    return ex;
}

MigrationLedger::Exchange
MigrationLedger::poll(int epoch)
{
    std::lock_guard<std::mutex> lock(mu_);
    return exchangeLocked(epoch);
}

MigrationLedger::Exchange
MigrationLedger::wait(int epoch, const std::function<bool()> &stopped)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto isSealed = [&] {
        auto it = epochs_.find(epoch);
        return it != epochs_.end() && it->second.sealed;
    };
    // The timeout only polls the external stop: every seal notifies
    // under mu_, so no wake-up is lost between the check and the wait.
    while (!sealed_.wait_for(lock, std::chrono::milliseconds(20),
                             isSealed))
        if (stopped && stopped())
            return {};
    return exchangeLocked(epoch);
}

void
MigrationLedger::verifyReplay(const std::vector<MigrantRecord> &ledger)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const MigrantRecord &rec : ledger) {
        auto it = epochs_.find(rec.epoch);
        if (it == epochs_.end() || !it->second.sealed) {
            // The island injected migrants from an epoch this ledger
            // never sealed: its history cannot be ours.
            stats_.elitesLost += static_cast<long>(rec.keys.size());
            continue;
        }
        for (const std::string &key : rec.keys)
            if (std::find(it->second.migrantKeys.begin(),
                          it->second.migrantKeys.end(),
                          key) == it->second.migrantKeys.end())
                ++stats_.elitesLost;
    }
}

bool
MigrationLedger::allDone()
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(doneAt_.size()) >= cfg_.islands;
}

std::pair<int, int>
MigrationLedger::winner()
{
    std::lock_guard<std::mutex> lock(mu_);
    return {winnerIsland_, winnerEpoch_};
}

MigrationStats
MigrationLedger::stats()
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::vector<std::pair<int, std::vector<std::string>>>
MigrationLedger::broadcasts()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<int, std::vector<std::string>>> out;
    for (const auto &[epoch, st] : epochs_)
        if (st.sealed)
            out.emplace_back(epoch, st.migrantKeys);
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return out;
}

LedgerState
MigrationLedger::state()
{
    std::lock_guard<std::mutex> lock(mu_);
    LedgerState out;
    out.config = cfg_;
    out.stats = stats_;
    out.winnerIsland = winnerIsland_;
    out.winnerEpoch = winnerEpoch_;
    for (const auto &[epoch, st] : epochs_) {
        if (!st.sealed)
            continue;
        LedgerState::Epoch e;
        e.epoch = epoch;
        e.submissions.assign(st.submissions.begin(), st.submissions.end());
        std::sort(e.submissions.begin(), e.submissions.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        e.migrants = st.migrants;
        out.epochs.push_back(std::move(e));
    }
    std::sort(out.epochs.begin(), out.epochs.end(),
              [](const LedgerState::Epoch &a, const LedgerState::Epoch &b) {
                  return a.epoch < b.epoch;
              });
    return out;
}

bool
MigrationLedger::restore(const LedgerState &saved)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (saved.config.islands != cfg_.islands ||
        saved.config.migrationInterval != cfg_.migrationInterval ||
        saved.config.migrantsPerIsland != cfg_.migrantsPerIsland)
        return false;
    stats_ = saved.stats;
    winnerIsland_ = saved.winnerIsland;
    winnerEpoch_ = saved.winnerEpoch;
    doneAt_.clear();
    if (winnerIsland_ != -1)
        doneAt_.emplace(winnerIsland_, winnerEpoch_);
    epochs_.clear();
    for (const LedgerState::Epoch &e : saved.epochs) {
        EpochState &st = epochs_[e.epoch];
        st.submissions.insert(e.submissions.begin(), e.submissions.end());
        st.migrants = e.migrants;
        for (const Variant &v : st.migrants)
            st.migrantKeys.push_back(v.patch.key());
        st.sealed = true;
    }
    return true;
}

// ------------------------------------------------------- runIslands

namespace {

/** The run's canonical hash (IslandOutcome::fingerprint). */
uint64_t
fingerprintOf(const IslandOutcome &out, uint64_t seed,
              const IslandConfig &cfg)
{
    std::ostringstream os;
    os << "island-fingerprint v1\n";
    os << "seed " << seed << '\n';
    os << "config " << cfg.islands << ' ' << cfg.migrationInterval << ' '
       << cfg.migrantsPerIsland << '\n';
    os << "winner " << out.winnerIsland << ' ' << out.winnerEpoch << '\n';
    for (const IslandStats &st : out.islands) {
        os << "island " << st.island << ' ' << st.generations << ' '
           << (st.found ? 1 : 0) << ' ' << (st.stopped ? 1 : 0) << ' '
           << hexDouble(st.bestFitness) << '\n';
        os << "patch " << st.patchKey.size() << '\n'
           << st.patchKey << '\n';
        for (const MigrantRecord &rec : st.ledger) {
            os << "injected " << rec.epoch << ' ' << rec.keys.size()
               << '\n';
            for (const std::string &key : rec.keys)
                os << "key " << key.size() << '\n' << key << '\n';
        }
    }
    for (const auto &[epoch, keys] : out.broadcasts) {
        os << "broadcast " << epoch << ' ' << keys.size() << '\n';
        for (const std::string &key : keys)
            os << "key " << key.size() << '\n' << key << '\n';
    }
    return fingerprintSource(os.str());
}

/** The digest of island @p island's finished run @p res. */
IslandStats
digestFromResult(int island, const RepairResult &res)
{
    IslandStats st;
    static_cast<SearchCounters &>(st) = res;
    st.island = island;
    st.generations = res.generations;
    st.found = res.found;
    st.stopped = res.stopped;
    st.bestFitness = res.fitnessTrajectory.empty()
                         ? 0.0
                         : res.fitnessTrajectory.back().second;
    if (res.found)
        st.patchKey = res.patch.key();
    st.ledger = res.migrantLedger;
    return st;
}

int
epochOf(int generations, int interval)
{
    return interval > 0 ? (generations + interval - 1) / interval : 0;
}

} // namespace

IslandOutcome
runIslands(std::shared_ptr<const verilog::SourceFile> faulty,
           const std::string &tbModule, const std::string &dutModule,
           const sim::ProbeConfig &probe, const Trace &oracle,
           const EngineConfig &base, const IslandConfig &cfg,
           const std::string &snapshotDir,
           const std::function<void(const GenerationStats &)>
               &onGeneration,
           const std::function<bool()> &shouldStop)
{
    namespace fs = std::filesystem;
    const int K = std::max(1, cfg.islands);

    auto ledgerPath = [&] {
        return snapshotDir.empty() ? std::string()
                                   : snapshotDir + "/islands.ledger";
    }();
    auto islandSnap = [&](int i) {
        return snapshotDir.empty()
                   ? std::string()
                   : snapshotDir + "/island-" + std::to_string(i) +
                         ".snap";
    };

    SharedFitnessStore store;
    MigrationLedger ledger(cfg, [&store](const std::string &key) {
        return store.isQuarantined(key);
    });

    // Crash recovery: island snapshots are only trustworthy together
    // with the ledger that fed them their migrants. A missing or
    // corrupt ledger, or one in another format version, restarts the
    // whole job from scratch (the rerun is deterministic, so the final
    // result is unchanged — only work is lost).
    if (!snapshotDir.empty() && K > 1) {
        bool haveSnaps = false;
        for (int i = 0; i < K; ++i)
            if (fs::exists(islandSnap(i)))
                haveSnaps = true;
        bool ledgerOk = false;
        try {
            if (fs::exists(ledgerPath))
                ledgerOk = ledger.restore(
                    decodeLedger(readFile(ledgerPath)));
        } catch (const std::runtime_error &) {
            // Unreadable, damaged or another version: restart below.
        }
        if (haveSnaps && !ledgerOk) {
            for (int i = 0; i < K; ++i)
                fs::remove(islandSnap(i));
            if (fs::exists(ledgerPath))
                fs::remove(ledgerPath);
        }
    }

    std::mutex persistMu;
    auto persistLedger = [&] {
        if (ledgerPath.empty())
            return;
        std::lock_guard<std::mutex> lock(persistMu);
        try {
            writeFileAtomic(ledgerPath, encodeLedger(ledger.state()));
        } catch (const std::runtime_error &) {
            // Best effort: the file only serves crash recovery, and a
            // failed write leaves the previous ledger in place.
        }
    };

    auto externalStop = [&] {
        return (shouldStop && shouldStop()) ||
               (base.shouldStop && base.shouldStop());
    };
    std::vector<char> stopFlags(static_cast<size_t>(K), 0);
    std::mutex genMu;

    std::vector<RepairResult> results(static_cast<size_t>(K));
    std::vector<std::string> failures(static_cast<size_t>(K));

    auto runOne = [&](int island) {
        EngineConfig ec = deriveIslandEngineConfig(base, cfg, island);
        ec.snapshotPath = islandSnap(island);
        if (K > 1) {
            ec.onMigration = [&, island](int epoch,
                                         const std::vector<Variant>
                                             &popn) {
                ledger.submit(island, epoch,
                              selectElites(popn, cfg.migrantsPerIsland));
                MigrationLedger::Exchange ex =
                    ledger.wait(epoch, externalStop);
                persistLedger();
                if (!ex.ready || ex.stop) {
                    stopFlags[static_cast<size_t>(island)] = 1;
                    return std::vector<Variant>{};
                }
                return ex.migrants;
            };
            ec.fleetLookup =
                [&store](const std::vector<std::string> &keys,
                         std::unordered_map<std::string,
                                            FitnessCache::Entry> *hits,
                         std::unordered_map<std::string,
                                            QuarantineEntry> *quar) {
                    store.lookup(keys, hits, quar);
                };
            ec.fleetPublish =
                [&store](
                    const std::vector<std::pair<
                        std::string, FitnessCache::Entry>> &scored,
                    const std::vector<std::pair<
                        std::string, QuarantineEntry>> &condemned) {
                    store.publish(scored, condemned);
                };
        }
        ec.shouldStop = [&, island] {
            return stopFlags[static_cast<size_t>(island)] || externalStop();
        };
        if (onGeneration)
            ec.onGeneration = [&](const GenerationStats &gs) {
                std::lock_guard<std::mutex> lock(genMu);
                onGeneration(gs);
            };
        else
            ec.onGeneration = nullptr;

        try {
            RepairEngine engine(faulty, tbModule, dutModule, probe,
                                oracle, ec);
            RepairResult res;
            if (!ec.snapshotPath.empty() &&
                fs::exists(ec.snapshotPath)) {
                EngineState state = loadSnapshot(ec.snapshotPath);
                ledger.verifyReplay(state.migrantLedger);
                res = engine.resume(state);
            } else {
                res = engine.run();
            }
            results[static_cast<size_t>(island)] = std::move(res);
        } catch (const std::exception &e) {
            failures[static_cast<size_t>(island)] = e.what();
        }
        const RepairResult &res = results[static_cast<size_t>(island)];
        // Wind-down (external stop, no winner): do NOT mark the island
        // done — the mark would seal later epochs with partial
        // submissions, and the checkpoint would diverge from the
        // uninterrupted run. The island stays resumable. (Every other
        // island sees the same stop, so no barrier waits on the
        // skipped mark.)
        bool windDown = res.stopped && !res.found && externalStop();
        if (!windDown) {
            ledger.markDone(island,
                            epochOf(res.generations,
                                    K > 1 ? cfg.migrationInterval : 0),
                            res.found);
            persistLedger();
        }
    };

    if (K == 1) {
        runOne(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(K));
        for (int i = 0; i < K; ++i)
            threads.emplace_back(runOne, i);
        for (auto &t : threads)
            t.join();
    }

    for (int i = 0; i < K; ++i)
        if (!failures[static_cast<size_t>(i)].empty())
            throw std::runtime_error(
                "island " + std::to_string(i) +
                " failed: " + failures[static_cast<size_t>(i)]);

    IslandOutcome out;
    auto [wIsland, wEpoch] = ledger.winner();
    out.winnerIsland = wIsland;
    out.winnerEpoch = wEpoch;
    out.found = wIsland != -1;
    for (int i = 0; i < K; ++i)
        out.islands.push_back(
            digestFromResult(i, results[static_cast<size_t>(i)]));
    out.broadcasts = ledger.broadcasts();
    out.migration = ledger.stats();
    if (out.found) {
        out.result = std::move(results[static_cast<size_t>(wIsland)]);
    } else {
        // Best-effort digest when nothing repaired: highest best-seen
        // fitness, lowest island index on ties.
        int best = 0;
        for (int i = 1; i < K; ++i)
            if (out.islands[static_cast<size_t>(i)].bestFitness >
                out.islands[static_cast<size_t>(best)].bestFitness)
                best = i;
        out.winnerIsland = -1;
        out.result = std::move(results[static_cast<size_t>(best)]);
    }
    out.fingerprint = fingerprintOf(out, base.seed, cfg);
    return out;
}

} // namespace cirfix::core
