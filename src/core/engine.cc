#include "core/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/island.h"
#include "core/snapshot.h"
#include "verilog/parser.h"
#include "verilog/printer.h"
#include "verilog/validate.h"

namespace cirfix::core {

using namespace verilog;
using sim::ProbeConfig;

size_t
uniformIndex(std::mt19937_64 &rng, size_t n)
{
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
}

bool SearchCounters::operator==(const SearchCounters &) const = default;

namespace {

/** LRU bound of the patch-keyed fitness cache. */
constexpr size_t kFitnessCacheSize = 512;

/** @p patch scored by a cache entry (local or fleet). The trace is
 *  shared with the entry, not copied. */
Variant
cachedVariant(const Patch &patch, const FitnessCache::Entry &hit)
{
    Variant v;
    v.patch = patch;
    v.evaluated = true;
    v.valid = hit.valid;
    v.fit = hit.fit;
    v.trace = hit.trace;
    v.outcome = hit.outcome;
    v.error = hit.error;
    return v;
}

/** The cache entry that records @p v's evaluation. */
FitnessCache::Entry
cacheEntry(const Variant &v)
{
    return FitnessCache::Entry{v.valid, v.fit, v.trace, v.outcome,
                               v.error};
}

} // namespace

SearchCounters &
SearchCounters::operator+=(const SearchCounters &other)
{
    forEachCounter([](const char *, const char *, auto &sum,
                      const auto &add) { sum += add; },
                   *this, other);
    return *this;
}

RepairEngine::RepairEngine(std::shared_ptr<const SourceFile> faulty,
                           std::string tb_module, std::string dut_module,
                           ProbeConfig probe, Trace oracle,
                           EngineConfig config)
    : faulty_(std::move(faulty)), tbModule_(std::move(tb_module)),
      dutModule_(std::move(dut_module)), probe_(std::move(probe)),
      oracle_(std::move(oracle)), config_(config), rng_(config.seed),
      cache_(kFitnessCacheSize)
{
    // The pre-screen diffs every candidate against the *baseline*
    // design's lint fingerprint: only findings the mutation introduced
    // can reject, never warts the defective design already had.
    // Computed once here and immutable afterwards — worker threads
    // read it concurrently.
    if (config_.lintPrescreen)
        prescreen_.emplace(*faulty_, config_.lintOptions);

    // Map every baseline node to its module, so the per-candidate
    // checks can skip the modules a patch leaves alone. Lint keys
    // findings by module name: with a name repeated, the map stays
    // empty and every patch is checked whole.
    bool unique_names = true;
    for (const auto &mod : faulty_->modules)
        unique_names &= faulty_->findModule(mod->name) == mod.get();
    if (unique_names) {
        moduleOfNode_.assign(static_cast<size_t>(faulty_->nextId),
                             kWholeFile);
        for (size_t m = 0; m < faulty_->modules.size(); ++m)
            for (const ItemPtr &item : faulty_->modules[m]->items) {
                const int tag = item->kind == NodeKind::VarDecl
                                    ? kWholeFile
                                    : static_cast<int>(m);
                visitAll(*item, [&](Node &n) {
                    if (n.id < 0)
                        return;
                    if (static_cast<size_t>(n.id) >= moduleOfNode_.size())
                        moduleOfNode_.resize(n.id + 1, kWholeFile);
                    moduleOfNode_[n.id] = tag;
                });
            }
    }
    baselineValid_ = isValid(*faulty_);

    // The containment every candidate and witness simulation runs under.
    guards_.memBudgetBytes = config_.evalMemoryBudget;
    guards_.faultPlan = config_.faultPlan;
    limits_ = config_.simLimits;
    if (limits_.maxWallSeconds <= 0)
        limits_.maxWallSeconds = config_.evalDeadlineSeconds;

    // Witness benches: parse each generated testbench once; immutable
    // after construction — worker threads read them.
    witnessRt_.reserve(config_.witnessBenches.size());
    for (const OracleBench &b : config_.witnessBenches)
        witnessRt_.push_back(WitnessRuntime{
            &b,
            std::shared_ptr<const SourceFile>(verilog::parse(b.source))});
}

EvalPool &
RepairEngine::pool()
{
    if (!pool_) {
        int n = config_.numThreads;
        if (n <= 0)
            n = static_cast<int>(std::thread::hardware_concurrency());
        if (n < 1)
            n = 1;
        pool_ = std::make_unique<EvalPool>(n);
    }
    return *pool_;
}

Variant
RepairEngine::evaluateUncached(const Patch &patch) const
{
    Variant v;
    v.patch = patch;
    v.evaluated = true;

    std::shared_ptr<SourceFile> patched =
        applyPatch(*faulty_, patch);
    v.outcome = screen(*patched, patch, &v.error);
    if (v.outcome != EvalOutcome::Ok) {
        v.valid = false;  // worst fitness, no simulation
        return v;
    }

    // Total containment (runGuarded): every failure mode of the
    // simulation degrades to a worst-fitness Variant tagged with its
    // EvalOutcome.
    GuardedRun run =
        runGuarded(patched, tbModule_, probe_, guards_, limits_);
    v.outcome = run.outcome;
    v.valid = run.outcome == EvalOutcome::Ok;
    if (!v.valid) {
        v.error = std::move(run.error);
        return v;
    }
    v.trace = std::move(run.trace);
    v.fit = evaluateFitness(v.trace, oracle_, config_.fitness);
    if (!witnessRt_.empty())
        scoreWitnessBenches(*patched, v);
    return v;
}

std::optional<std::vector<size_t>>
RepairEngine::touchedModules(const Patch &patch) const
{
    std::vector<size_t> mods;
    for (const Edit &e : patch.edits) {
        if (e.target >= static_cast<int>(moduleOfNode_.size()))
            continue;  // created by an earlier edit: its module counts
        const int m = e.target < 0 ? kWholeFile : moduleOfNode_[e.target];
        if (m == kWholeFile)
            return std::nullopt;
        mods.push_back(static_cast<size_t>(m));
    }
    if (mods.empty())
        return std::nullopt;
    std::sort(mods.begin(), mods.end());
    mods.erase(std::unique(mods.begin(), mods.end()), mods.end());
    return mods;
}

EvalOutcome
RepairEngine::screen(const SourceFile &patched, const Patch &patch,
                     std::string *error) const
{
    const std::optional<std::vector<size_t>> touched =
        touchedModules(patch);
    // A module the patch left alone validates and lints as it did in
    // the baseline: statement edits change neither declarations nor
    // ports, the only things other modules look up.
    const bool valid = touched && baselineValid_
                           ? isValid(patched, *touched)
                           : isValid(patched);
    if (!valid) {
        if (error)  // the simulator's "compile error"
            *error = "patch failed structural validation";
        return EvalOutcome::ParseFail;
    }
    // A new error-severity finding the baseline did not have: the
    // mutation manufactured something doomed (a zero-delay loop, a
    // second driver on a net).
    if (prescreen_ &&
        prescreen_->newErrors(patched, touched ? &*touched : nullptr,
                              error) > 0)
        return EvalOutcome::LintReject;
    return EvalOutcome::Ok;
}

void
RepairEngine::scoreWitnessBenches(const SourceFile &patched,
                                  Variant &v) const
{
    for (const WitnessRuntime &w : witnessRt_) {
        // Pair the patched DUT modules with the witness testbench in a
        // fresh file. Node ids are irrelevant here: the combined file
        // is only elaborated, never mutated.
        auto combined = std::make_shared<SourceFile>();
        for (const auto &m : patched.modules)
            if (!w.file->findModule(m->name))
                combined->modules.push_back(m->cloneModule());
        for (const auto &m : w.file->modules)
            combined->modules.push_back(m->cloneModule());

        GuardedRun run = runGuarded(std::move(combined), w.bench->module,
                                    w.bench->probe, guards_, limits_);
        if (run.outcome != EvalOutcome::Ok) {
            v.outcome = run.outcome;
            v.valid = false;
            v.error =
                "witness bench '" + w.bench->module + "': " + run.error;
            return;
        }
        v.fit = combineFitness(
            v.fit, evaluateFitness(run.trace, w.bench->oracle,
                                   config_.fitness));
    }
}

Variant
RepairEngine::quarantinedVariant(const Patch &patch,
                                 const QuarantineEntry &entry) const
{
    Variant v;
    v.patch = patch;
    v.evaluated = true;
    v.valid = false;  // worst fitness, no simulation
    v.outcome = entry.outcome;
    v.error = entry.error;
    return v;
}

Variant
RepairEngine::evaluate(const Patch &patch)
{
    std::string key = patch.key();
    auto q = quarantine_.find(key);
    if (q != quarantine_.end()) {
        ++counters_.outcomes.quarantineHits;
        return quarantinedVariant(patch, q->second);
    }
    if (const FitnessCache::Entry *hit = cache_.find(key))
        return cachedVariant(patch, *hit);
    Variant v = evaluateUncached(patch);
    if (v.valid)
        ++counters_.fitnessEvals;
    counters_.outcomes.add(v.outcome);
    if (v.outcome == EvalOutcome::LintReject)
        // Never cached or quarantined: the decision is a pure function
        // of the patch and recomputing it is cheaper than a cache slot.
        ++counters_.lintRejects;
    else if (isQuarantineOutcome(v.outcome))
        quarantine_.emplace(key, QuarantineEntry{v.outcome, v.error});
    else
        cache_.insert(key, cacheEntry(v));
    return v;
}

std::vector<Variant>
RepairEngine::evaluateBatch(const std::vector<Patch> &patches,
                            std::vector<bool> &simulated_out)
{
    const size_t n = patches.size();
    enum class Source {
        Fresh,
        Cached,
        Duplicate,
        Quarantined,
        FleetCached,       //!< scored elsewhere in the fleet
        FleetQuarantined,  //!< condemned elsewhere in the fleet
    };
    std::vector<Variant> out(n);
    std::vector<std::string> keys(n);
    std::vector<Source> source(n, Source::Fresh);
    std::vector<size_t> dup_of(n, 0);
    std::unordered_map<std::string, size_t> first_occurrence;
    std::vector<size_t> fresh;  //!< child indices that must simulate

    // Quarantine + cache lookups and in-batch dedup in child order, on
    // this thread (so all accounting and LRU order are
    // schedule-independent). Quarantine wins over everything: a
    // condemned key must never reach a worker again.
    for (size_t i = 0; i < n; ++i) {
        keys[i] = patches[i].key();
        auto q = quarantine_.find(keys[i]);
        if (q != quarantine_.end()) {
            source[i] = Source::Quarantined;
            ++counters_.outcomes.quarantineHits;
            out[i] = quarantinedVariant(patches[i], q->second);
            continue;
        }
        auto dup = first_occurrence.find(keys[i]);
        if (dup != first_occurrence.end()) {
            source[i] = Source::Duplicate;
            dup_of[i] = dup->second;
            cache_.noteDuplicateHit();
            continue;
        }
        if (const FitnessCache::Entry *hit = cache_.find(keys[i])) {
            source[i] = Source::Cached;
            out[i] = cachedVariant(patches[i], *hit);
            continue;
        }
        first_occurrence.emplace(keys[i], i);
        fresh.push_back(i);
    }

    // Consult the fleet-shared cache once for everything the local
    // cache missed. A fleet hit carries an exact score, so substituting
    // it for a fresh simulation cannot change any search decision —
    // only how much work this island performs. Hits are adopted into
    // the local cache during the ordered merge below, exactly where a
    // fresh result would have landed.
    if (config_.fleetLookup && !fresh.empty()) {
        std::vector<std::string> ask;
        ask.reserve(fresh.size());
        for (size_t i : fresh)
            ask.push_back(keys[i]);
        std::unordered_map<std::string, FitnessCache::Entry> hits;
        std::unordered_map<std::string, QuarantineEntry> condemned;
        config_.fleetLookup(ask, &hits, &condemned);
        std::vector<size_t> still;
        still.reserve(fresh.size());
        for (size_t i : fresh) {
            if (auto q = condemned.find(keys[i]); q != condemned.end()) {
                source[i] = Source::FleetQuarantined;
                out[i] = quarantinedVariant(patches[i], q->second);
                continue;
            }
            if (auto h = hits.find(keys[i]); h != hits.end()) {
                source[i] = Source::FleetCached;
                out[i] = cachedVariant(patches[i], h->second);
                continue;
            }
            still.push_back(i);
        }
        fresh = std::move(still);
    }

    // One dispatch for every fresh simulation.
    std::vector<std::function<void()>> jobs;
    jobs.reserve(fresh.size());
    for (size_t i : fresh)
        jobs.push_back(
            [&, i] { out[i] = evaluateUncached(patches[i]); });
    pool().run(jobs);

    // Merge in child order; only this thread touches the cache, the
    // quarantine and the outcome counters.
    std::vector<std::pair<std::string, FitnessCache::Entry>> publish_scored;
    std::vector<std::pair<std::string, QuarantineEntry>> publish_condemned;
    simulated_out.assign(n, false);
    for (size_t i = 0; i < n; ++i) {
        switch (source[i]) {
          case Source::Fresh:
            simulated_out[i] = out[i].valid;
            counters_.outcomes.add(out[i].outcome);
            if (out[i].outcome == EvalOutcome::LintReject) {
                // Never cached (pure function of the patch) and never
                // quarantined (the patch never simulated, so it earned
                // no pathology verdict).
                ++counters_.lintRejects;
            } else if (isQuarantineOutcome(out[i].outcome)) {
                quarantine_.emplace(
                    keys[i],
                    QuarantineEntry{out[i].outcome, out[i].error});
                if (config_.fleetPublish)
                    publish_condemned.emplace_back(
                        keys[i],
                        QuarantineEntry{out[i].outcome, out[i].error});
            } else {
                FitnessCache::Entry entry = cacheEntry(out[i]);
                if (config_.fleetPublish)
                    publish_scored.emplace_back(keys[i], entry);
                cache_.insert(keys[i], std::move(entry));
            }
            break;
          case Source::FleetCached:
            // An exact score computed by another island. Adopt it into
            // the local cache at the exact merge slot a fresh
            // simulation would have used, and account for it like a
            // simulated candidate — the search trajectory is identical
            // either way, only the work counters differ.
            simulated_out[i] = out[i].valid;
            counters_.outcomes.add(out[i].outcome);
            ++counters_.fleetCacheHits;
            cache_.insert(keys[i], cacheEntry(out[i]));
            break;
          case Source::FleetQuarantined:
            ++counters_.fleetQuarantineHits;
            quarantine_.emplace(
                keys[i],
                QuarantineEntry{out[i].outcome, out[i].error});
            break;
          case Source::Duplicate: {
            // The first occurrence's evaluation under this child's own
            // patch; its patch is set aside so that it is not copied.
            Variant &first = out[dup_of[i]];
            Patch first_patch = std::move(first.patch);
            out[i] = first;
            first.patch = std::move(first_patch);
            out[i].patch = patches[i];
            break;
          }
          case Source::Cached:
          case Source::Quarantined:
            break;
        }
    }
    if (config_.fleetPublish &&
        (!publish_scored.empty() || !publish_condemned.empty()))
        config_.fleetPublish(publish_scored, publish_condemned);
    return out;
}

const Variant &
RepairEngine::tournament(const std::vector<Variant> &popn)
{
    const Variant *best = nullptr;
    for (int i = 0; i < config_.tournamentSize; ++i) {
        const Variant &cand = popn[uniformIndex(rng_, popn.size())];
        if (!best || cand.fit.fitness > best->fit.fitness)
            best = &cand;
    }
    return *best;
}

SearchCounters
RepairEngine::counters() const
{
    SearchCounters c = counters_;
    c.cache = cache_.stats();
    return c;
}

RepairResult
RepairEngine::run()
{
    return runInternal(nullptr);
}

RepairResult
RepairEngine::resume(const EngineState &state)
{
    uint64_t fp = fingerprintSource(print(*faulty_));
    if (state.designFingerprint != fp)
        throw std::runtime_error(
            "snapshot does not match this design "
            "(fingerprint mismatch: snapshot was taken against a "
            "different faulty source)");
    // The RNG stream, population and cache carry the seed they were
    // drawn under; continuing them under another seed is neither run.
    if (state.seed != config_.seed)
        throw std::runtime_error(
            "snapshot seed mismatch: snapshot was taken with seed " +
            std::to_string(state.seed) + ", but this engine has seed " +
            std::to_string(config_.seed));
    // The oracle the snapshot's fitness values were scored under must
    // be the oracle this engine will keep scoring under; otherwise the
    // restored population and cache are silently wrong. Hardening
    // migrates a snapshot to a new witness set with rehardenSnapshot()
    // (witness.h), which re-scores before resume.
    if (state.witnesses.size() != config_.witnessBenches.size())
        throw std::runtime_error(
            "snapshot witness benches do not match the engine "
            "configuration (got " +
            std::to_string(state.witnesses.size()) + ", engine has " +
            std::to_string(config_.witnessBenches.size()) +
            "); migrate the snapshot with rehardenSnapshot() first");
    for (size_t i = 0; i < state.witnesses.size(); ++i) {
        const OracleBench &a = state.witnesses[i];
        const OracleBench &b = config_.witnessBenches[i];
        if (a.module != b.module || a.source != b.source ||
            a.oracle.toCsv() != b.oracle.toCsv())
            throw std::runtime_error(
                "snapshot witness bench '" + a.module +
                "' differs from the engine configuration; migrate the "
                "snapshot with rehardenSnapshot() first");
    }
    // An island snapshot belongs to exactly one (island, K) slot: the
    // RNG stream and migrant ledger it carries are meaningless under
    // any other slot, so resuming it there would silently diverge.
    if (state.islandIndex != config_.islandIndex ||
        state.islandCount != config_.islandCount)
        throw std::runtime_error(
            "snapshot island provenance mismatch: snapshot was taken "
            "by island " + std::to_string(state.islandIndex) + " of " +
            std::to_string(state.islandCount) +
            ", but this engine is island " +
            std::to_string(config_.islandIndex) + " of " +
            std::to_string(config_.islandCount));
    return runInternal(&state);
}

EngineState
RepairEngine::captureState(
    int generations_done, const std::vector<Variant> &popn,
    double elapsed_seconds, double best_seen,
    const std::vector<std::pair<long, double>> &trajectory) const
{
    EngineState st;
    st.seed = config_.seed;
    st.designFingerprint = fingerprintSource(print(*faulty_));
    st.provenance = config_.snapshotProvenance;
    {
        std::ostringstream os;
        os << rng_;
        st.rngState = os.str();
    }
    st.generationsDone = generations_done;
    st.witnesses = config_.witnessBenches;
    st.counters = counters();
    st.elapsedSeconds = elapsed_seconds;
    st.bestSeen = best_seen;
    st.trajectory = trajectory;
    st.population = popn;
    st.islandIndex = config_.islandIndex;
    st.islandCount = config_.islandCount;
    st.migrationEpoch = config_.migrationInterval > 0
                            ? generations_done / config_.migrationInterval
                            : 0;
    st.migrantLedger = migrantLedger_;
    for (const auto &[key, entry] : quarantine_)
        st.quarantine.push_back(QuarantineRecord{key, entry});
    std::sort(st.quarantine.begin(), st.quarantine.end(),
              [](const QuarantineRecord &a, const QuarantineRecord &b) {
                  return a.key < b.key;
              });
    // LRU-first so restore re-insert()s in an order that reproduces
    // the live list (and therefore future evictions) exactly.
    const auto &lru = cache_.entries();
    for (auto it = lru.rbegin(); it != lru.rend(); ++it)
        st.cache.push_back(CacheRecord{it->first, it->second});
    return st;
}

RepairResult
RepairEngine::runInternal(const EngineState *restore)
{
    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    if (restore)
        // Bill time consumed before the snapshot against maxSeconds,
        // as if the run had never stopped.
        start -= std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(restore->elapsedSeconds));
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    RepairResult result;
    Mutator mutator(rng_, config_.mutation);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);

    double best_seen = -1.0;
    auto note = [&](const Variant &v) {
        if (v.fit.fitness > best_seen) {
            best_seen = v.fit.fitness;
            result.fitnessTrajectory.emplace_back(counters_.fitnessEvals,
                                                  best_seen);
        }
    };

    /**
     * Charge a batch of evaluated children against the engine
     * counters, append them to @p into, and record trajectory
     * improvements — all in child order, so the merged state is
     * bit-identical at any thread count. Returns the first plausible
     * child (if any), which ends the trial.
     */
    auto absorb = [&](std::vector<Variant> &vs,
                      const std::vector<bool> &simulated,
                      std::vector<Variant> &into) -> const Variant * {
        size_t winner = vs.size();
        size_t base = into.size();
        for (size_t i = 0; i < vs.size(); ++i) {
            ++counters_.totalMutants;
            if (!vs[i].valid)
                ++counters_.invalidMutants;
            if (simulated[i])
                ++counters_.fitnessEvals;
            into.push_back(std::move(vs[i]));
            note(into.back());
            if (winner == vs.size() && into.back().fit.plausible())
                winner = base + i;
        }
        return winner == vs.size() ? nullptr : &into[winner];
    };

    std::vector<Variant> popn;
    int start_gen = 0;

    auto finish = [&](const Variant *winner) {
        result.witnessBenches = static_cast<int>(witnessRt_.size());
        result.seconds = elapsed();
        if (winner) {
            result.found = true;
            // Discovery-point snapshot: capture the search state the
            // moment a plausible candidate appears, before minimization
            // perturbs the cache/counters. Hardened repair resumes from
            // here after extending the oracle with a witness, so even a
            // win before the first generation boundary stays resumable.
            if (config_.snapshotOnWin && !config_.snapshotPath.empty())
                saveSnapshot(config_.snapshotPath,
                             captureState(result.generations, popn,
                                          elapsed(), best_seen,
                                          result.fitnessTrajectory));
            // Post-process: minimize with delta debugging, then print.
            Patch minimized = minimizePatch(
                winner->patch,
                [&](const Patch &p) {
                    Variant t = evaluate(p);
                    return t.valid && t.fit.plausible();
                });
            result.patch = minimized;
            Variant final_v = evaluate(minimized);
            result.finalFitness = final_v.fit;
            auto repaired = applyPatch(*faulty_, minimized);
            result.repairedSource = print(*repaired);
            result.seconds = elapsed();
        }
        static_cast<SearchCounters &>(result) = counters();
        result.migrantLedger = migrantLedger_;
        return result;
    };

    if (restore) {
        // Rebuild the complete search state: the continuation is
        // bit-identical to a run that never stopped.
        {
            std::istringstream is(restore->rngState);
            is >> rng_;
            if (!is)
                throw std::runtime_error(
                    "corrupt snapshot: bad RNG state");
        }
        counters_ = restore->counters;
        counters_.cache = {};  // cache_ keeps these: setStats below
        best_seen = restore->bestSeen;
        result.fitnessTrajectory = restore->trajectory;
        result.generations = restore->generationsDone;
        quarantine_.clear();
        for (const QuarantineRecord &q : restore->quarantine)
            quarantine_.emplace(q.key, q.entry);
        cache_ = FitnessCache(kFitnessCacheSize);
        for (const CacheRecord &c : restore->cache)
            cache_.insert(c.key, c.entry);  // LRU-first, see snapshot.h
        cache_.setStats(restore->counters.cache);
        popn = restore->population;
        start_gen = restore->generationsDone;
        migrantLedger_ = restore->migrantLedger;
    } else {
        // seed_popn: the original plus single-mutation neighbours. The
        // original goes first (and alone): its trace seeds fault
        // localization for the neighbour draws.
        {
            std::vector<Patch> seed{Patch{}};
            std::vector<bool> simulated;
            auto vs = evaluateBatch(seed, simulated);
            if (const Variant *w = absorb(vs, simulated, popn))
                return finish(w);
        }
        auto ast0 = applyPatch(*faulty_, Patch{});
        const Module *dut0 = ast0->findModule(dutModule_);
        if (!dut0)
            return finish(nullptr);
        FaultLocResult fl0 =
            faultLocalize(*dut0, popn[0].trace, oracle_);
        std::vector<Patch> seeds;
        while (static_cast<int>(popn.size() + seeds.size()) <
                   config_.popSize &&
               elapsed() < config_.maxSeconds) {
            Patch p;
            std::optional<Edit> e =
                uniform(rng_) <= config_.rtThreshold
                    ? mutator.templateEdit(*ast0, *dut0, fl0.nodeIds)
                    : mutator.mutate(*ast0, *dut0, fl0.nodeIds);
            if (e)
                p.edits.push_back(std::move(*e));
            seeds.push_back(std::move(p));
        }
        std::vector<bool> simulated;
        auto vs = evaluateBatch(seeds, simulated);
        if (const Variant *w = absorb(vs, simulated, popn))
            return finish(w);
    }

    // Cache fault localization per parent AST once on the original if
    // re-localization is disabled (ablation). On resume popn[0] is no
    // longer the original, so recompute its trace off to the side
    // (evaluateUncached touches no counters/cache, keeping the resumed
    // state byte-identical).
    FaultLocResult static_fl;
    if (!config_.relocalize) {
        auto ast0 = applyPatch(*faulty_, Patch{});
        if (const Module *dut0 = ast0->findModule(dutModule_)) {
            if (!restore) {
                static_fl =
                    faultLocalize(*dut0, popn[0].trace, oracle_);
            } else {
                Variant orig = evaluateUncached(Patch{});
                static_fl = faultLocalize(*dut0, orig.trace, oracle_);
            }
        }
    }

    auto stopRequested = [&] {
        return config_.shouldStop && config_.shouldStop();
    };
    // Patches never add or remove modules: the DUT is in every
    // parent's AST exactly when it is in the original.
    const bool has_dut = faulty_->findModule(dutModule_) != nullptr;

    for (int gen = start_gen; gen < config_.maxGenerations; ++gen) {
        if (elapsed() >= config_.maxSeconds)
            break;
        if (stopRequested()) {
            result.stopped = true;
            break;
        }
        result.generations = gen + 1;

        // (a) Pre-draw every stochastic decision for the generation on
        // this thread: parent picks, operator choices, edit sites. The
        // RNG stream therefore never depends on evaluation scheduling.
        std::vector<Patch> planned;
        int attempts = 0;
        const int max_attempts = config_.popSize * 16 + 16;
        // Fault localization of each parent slot, computed on first
        // use: popn is fixed while planning, so a parent drawn again
        // this generation reuses its result.
        std::vector<std::optional<FaultLocResult>> slot_fl(popn.size());
        const Trace no_trace;
        auto parentFl = [&](const Variant &parent,
                            const Module &dut) -> const FaultLocResult & {
            if (!config_.relocalize)
                return static_fl;
            std::optional<FaultLocResult> &fl =
                slot_fl[static_cast<size_t>(&parent - popn.data())];
            if (!fl)
                fl = faultLocalize(
                    dut, parent.evaluated && parent.valid ? parent.trace
                                                          : no_trace,
                    oracle_);
            return *fl;
        };
        while (static_cast<int>(planned.size()) < config_.popSize &&
               attempts++ < max_attempts) {
            if (elapsed() >= config_.maxSeconds || stopRequested())
                break;
            const Variant &parent = tournament(popn);
            if (!has_dut)
                break;

            // Patching and localization draw no randomness, so they
            // run after the operator draw and only for the operators
            // that read the parent's AST: repair templates and
            // mutation operators.
            const bool use_template = uniform(rng_) <= config_.rtThreshold;
            if (use_template || uniform(rng_) <= config_.mutThreshold) {
                auto parent_ast = applyPatch(*faulty_, parent.patch);
                const Module &dut = *parent_ast->findModule(dutModule_);
                const auto &sites = parentFl(parent, dut).nodeIds;
                if (auto e = use_template
                                 ? mutator.templateEdit(*parent_ast, dut,
                                                        sites)
                                 : mutator.mutate(*parent_ast, dut, sites)) {
                    Patch p = parent.patch;
                    p.edits.push_back(std::move(*e));
                    planned.push_back(std::move(p));
                }
            } else {
                // Crossover with a second parent.
                const Variant &parent2 = tournament(popn);
                auto [c1, c2] =
                    crossover(parent.patch, parent2.patch, rng_);
                planned.push_back(std::move(c1));
                planned.push_back(std::move(c2));
            }
        }

        // A cancel inside the planning loop aborts before the batch is
        // simulated: the generation's work is discarded, so the cancel
        // takes effect mid-generation rather than after it.
        if (stopRequested()) {
            result.generations = gen;  // this generation never ran
            result.stopped = true;
            break;
        }

        // (b) Fan the children out to the pool, (c) merge in child order.
        std::vector<bool> simulated;
        auto vs = evaluateBatch(planned, simulated);
        std::vector<Variant> children;
        if (const Variant *w = absorb(vs, simulated, children))
            return finish(w);

        // Elitism: keep the top e% of the previous generation.
        // Stable sorts here and below: the survivor ORDER (which
        // tournament indexes into) must be a function of the members'
        // input order and fitness alone, never of how the sort
        // algorithm permutes ties.
        std::stable_sort(popn.begin(), popn.end(),
                         [](const Variant &a, const Variant &b) {
                             return a.fit.fitness > b.fit.fitness;
                         });
        int elites = std::max(
            1, static_cast<int>(config_.elitism *
                                static_cast<double>(popn.size())));
        std::vector<Variant> next;
        for (int i = 0; i < elites &&
                        i < static_cast<int>(popn.size());
             ++i)
            next.push_back(std::move(popn[static_cast<size_t>(i)]));
        for (auto &c : children)
            next.push_back(std::move(c));
        std::stable_sort(next.begin(), next.end(),
                         [](const Variant &a, const Variant &b) {
                             return a.fit.fitness > b.fit.fitness;
                         });
        if (static_cast<int>(next.size()) > config_.popSize)
            next.resize(static_cast<size_t>(config_.popSize));
        popn = std::move(next);
        // Migration barrier: at each epoch boundary hand the truncated
        // population to the migration hook and splice the returned
        // rank-ordered migrant set in, all before the boundary snapshot
        // below — a crash after the snapshot resumes with migrants
        // already injected and the ledger already appended, and a crash
        // before it re-runs the whole generation (same RNG stream, same
        // export, same injection). The hook may block until the other
        // islands reach the barrier but must not touch this engine's
        // RNG.
        if (config_.migrationInterval > 0 && config_.onMigration &&
            (gen + 1) % config_.migrationInterval == 0) {
            const int epoch = (gen + 1) / config_.migrationInterval;
            std::vector<Variant> migrants =
                config_.onMigration(epoch, popn);
            if (stopRequested()) {
                // The hook came back under a stop (wind-down mid
                // barrier, or a winner sealed this epoch): do NOT
                // commit the boundary. Recording an empty injection
                // and snapshotting it would make a resumed run skip
                // this epoch's real migrant set and diverge; instead
                // the generation stays uncommitted and a resume
                // re-runs it — same RNG stream, same exchange
                // (submit is idempotent), real injection this time.
                result.generations = gen;
                result.stopped = true;
                break;
            }
            std::vector<std::string> imported =
                injectMigrants(&popn, migrants, config_.popSize);
            migrantLedger_.push_back(
                MigrantRecord{epoch, std::move(imported)});
        }
        // Snapshot BEFORE the progress callback: if the process dies
        // anywhere after this point (including inside the callback),
        // the generation is already durable.
        if (!config_.snapshotPath.empty())
            saveSnapshot(config_.snapshotPath,
                         captureState(gen + 1, popn, elapsed(),
                                      best_seen,
                                      result.fitnessTrajectory));
        if (config_.onGeneration) {
            GenerationStats gs;
            static_cast<SearchCounters &>(gs) = counters();
            gs.generation = gen + 1;
            gs.bestFitness = popn.empty() ? 0.0 : popn[0].fit.fitness;
            gs.quarantined = quarantine_.size();
            gs.witnessBenches = static_cast<int>(witnessRt_.size());
            gs.elapsedSeconds = elapsed();
            gs.island = config_.islandIndex;
            gs.epoch = config_.migrationInterval > 0
                           ? (gen + 1) / config_.migrationInterval
                           : 0;
            config_.onGeneration(gs);
        }
    }

    return finish(nullptr);
}

} // namespace cirfix::core
