#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/island.h"
#include "core/snapshot.h"
#include "sim/elaborate.h"
#include "verilog/parser.h"
#include "verilog/printer.h"
#include "verilog/validate.h"

namespace cirfix::core {

using namespace verilog;
using sim::Design;
using sim::ProbeConfig;
using sim::TraceRecorder;

size_t
uniformIndex(std::mt19937_64 &rng, size_t n)
{
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
}

RepairEngine::RepairEngine(std::shared_ptr<const SourceFile> faulty,
                           std::string tb_module, std::string dut_module,
                           ProbeConfig probe, Trace oracle,
                           EngineConfig config)
    : faulty_(std::move(faulty)), tbModule_(std::move(tb_module)),
      dutModule_(std::move(dut_module)), probe_(std::move(probe)),
      oracle_(std::move(oracle)), config_(config),
      oracleProfile_(OracleProfile::build(oracle_, config.fitness)),
      rng_(config.seed), cache_(config.fitnessCacheSize)
{
    // The pre-screen diffs every candidate against the *baseline*
    // design's lint fingerprint: only findings the mutation introduced
    // can reject, never warts the defective design already had.
    // Computed once here and immutable afterwards — worker threads
    // read it concurrently.
    if (config_.lintPrescreen)
        baselineLintFp_ = lint::fingerprint(
            lint::run(*faulty_, config_.lintOptions));

    // Witness benches: parse each generated testbench once and
    // precompute the score an absent trace earns against its oracle
    // (the worst case an early-aborted candidate is charged). Both are
    // immutable after construction — worker threads read them.
    witnessRt_.reserve(config_.witnessBenches.size());
    for (const OracleBench &b : config_.witnessBenches) {
        WitnessRuntime rt;
        rt.bench = &b;
        rt.file = std::shared_ptr<const SourceFile>(
            verilog::parse(b.source));
        rt.missing = evaluateFitness(Trace{}, b.oracle, config_.fitness);
        witnessTotal_ += rt.missing.total;
        witnessRt_.push_back(std::move(rt));
    }
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
    return evaluateUncached(patch, EvalHints{});
}

Variant
RepairEngine::evaluateUncached(const Patch &patch,
                               const EvalHints &hints) const
{
    using SimStatus = sim::Scheduler::Status;

    Variant v;
    v.patch = patch;
    v.evaluated = true;

    std::shared_ptr<SourceFile> patched =
        applyPatch(*faulty_, patch);
    if (!isValid(*patched)) {
        v.valid = false;  // "compile error": fitness stays 0
        v.outcome = EvalOutcome::ParseFail;
        v.error = "patch failed structural validation";
        return v;
    }
    v.valid = true;

    if (config_.lintPrescreen) {
        lint::Result lr = lint::run(*patched, config_.lintOptions);
        std::string msg;
        if (lint::newErrorCount(baselineLintFp_, lr, &msg) > 0) {
            // A new error-severity finding the baseline did not have:
            // the mutation manufactured something doomed (a zero-delay
            // loop, a second driver on a net). Worst fitness, no
            // simulation.
            v.valid = false;
            v.outcome = EvalOutcome::LintReject;
            v.error = msg;
            return v;
        }
    }

    // Total containment: no failure mode of a candidate may escape
    // this function. Every escape hatch degrades to a worst-fitness
    // Variant tagged with its EvalOutcome.
    std::unique_ptr<sim::Design> design;
    try {
        sim::SimGuards guards;
        guards.memBudgetBytes = config_.evalMemoryBudget;
        guards.faultPlan = config_.faultPlan;
        design = sim::elaborate(
            std::shared_ptr<const SourceFile>(patched), tbModule_,
            guards);
        TraceRecorder rec(*design, probe_);
        std::optional<StreamingFitness> scorer;
        if (hints.streaming) {
            scorer.emplace(oracle_, probe_.signals, config_.fitness,
                           &oracleProfile_);
            // With witness benches installed the survival threshold is
            // a COMBINED fitness, but the streaming scorer only bounds
            // the main bench. combined_ub <= (main_ub*Tm + Tw)/(Tm+Tw)
            // (every witness bit assumed to match), so aborting when
            // main_ub < (cutoff*(Tm+Tw) - Tw)/Tm is sound: even a
            // perfect witness score could not lift the candidate back
            // to the cutoff.
            double cutoff = hints.abortThreshold;
            if (witnessTotal_ > 0 && std::isfinite(cutoff)) {
                const double tm = oracleProfile_.suffixWeight.empty()
                                      ? 0.0
                                      : oracleProfile_.suffixWeight[0];
                cutoff = tm > 0
                             ? (cutoff * (tm + witnessTotal_) -
                                witnessTotal_) /
                                   tm
                             : -std::numeric_limits<double>::infinity();
            }
            rec.setSampleCallback(
                [&scorer, cutoff](sim::SimTime t,
                                  const std::vector<sim::LogicVec>
                                      &values) {
                    scorer->onSample(t, values);
                    // Strictly below: a candidate that can still TIE
                    // the survival threshold must finish (ties can
                    // survive the truncation merge).
                    return scorer->upperBound() < cutoff
                               ? TraceRecorder::SampleAction::Stop
                               : TraceRecorder::SampleAction::Continue;
                });
        }
        sim::RunLimits limits = config_.simLimits;
        if (limits.maxWallSeconds <= 0)
            limits.maxWallSeconds = config_.evalDeadlineSeconds;
        auto rr = design->run(limits);
        switch (rr.status) {
          case SimStatus::Runaway:
            v.outcome = EvalOutcome::Runaway;
            break;
          case SimStatus::Deadline:
            v.outcome = EvalOutcome::Deadline;
            break;
          case SimStatus::Crashed:
            v.outcome = EvalOutcome::Crashed;
            break;
          case SimStatus::EarlyStop:
            v.outcome = EvalOutcome::EarlyAbort;
            break;
          default:
            break;  // Finished / Idle / MaxTime: a real result
        }
        if (v.outcome == EvalOutcome::Ok) {
            v.trace = rec.takeTrace();
            if (scorer) {
                v.fit = scorer->finish();
                v.rowsScored = scorer->rowsReached();
            } else {
                v.fit =
                    evaluateFitness(v.trace, oracle_, config_.fitness);
            }
            if (!witnessRt_.empty())
                scoreWitnessBenches(*patched, v);
        } else if (v.outcome == EvalOutcome::EarlyAbort) {
            // A deliberate cutoff, not a failure: the candidate stays
            // valid and keeps its partial score (remaining oracle rows
            // read as missing, exactly as a short trace would in the
            // batch path). The partial fitness is <= the upper bound
            // that triggered the stop, so the candidate cannot survive
            // selection, win the trial, or advance the trajectory.
            v.trace = rec.takeTrace();
            v.fit = scorer->finish();
            v.rowsScored = scorer->rowsReached();
            v.error = design->scheduler().abortReason();
            // Witness benches are never simulated for an aborted
            // candidate; their rows read as missing (worst case), which
            // keeps the combined score under the upper bound that
            // triggered the stop.
            for (const WitnessRuntime &w : witnessRt_)
                v.fit = combineFitness(v.fit, w.missing);
        } else {
            v.valid = false;
            v.error = design->scheduler().abortReason();
        }
    } catch (const sim::ElabError &e) {
        v.valid = false;
        v.outcome = EvalOutcome::ElabFail;
        v.error = e.what();
    } catch (const sim::SimOom &e) {
        v.valid = false;
        v.outcome = EvalOutcome::Oom;
        v.error = e.what();
    } catch (const sim::SimAbort &e) {
        // A budget/deadline abort thrown outside a process (continuous
        // assignment or function evaluation) unwinds through run();
        // the scheduler's latch knows which kind fired first. On
        // elab-throw paths no Design (and no latch) exists yet, so
        // classify by the cause carried on the exception instead of
        // defaulting to Runaway.
        v.valid = false;
        bool deadline =
            design && design->scheduler().aborted()
                ? design->scheduler().abortStatus() ==
                      SimStatus::Deadline
                : e.cause == sim::SimAbort::Cause::Deadline;
        v.outcome = deadline ? EvalOutcome::Deadline
                             : EvalOutcome::Runaway;
        v.error = e.what();
    } catch (const std::exception &e) {
        v.valid = false;
        v.outcome = EvalOutcome::Crashed;
        v.error = e.what();
    } catch (...) {
        v.valid = false;
        v.outcome = EvalOutcome::Crashed;
        v.error = "unknown exception";
    }
    return v;
}

bool
RepairEngine::scoreWitnessBenches(const SourceFile &patched,
                                  Variant &v) const
{
    using SimStatus = sim::Scheduler::Status;

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

        sim::SimGuards guards;
        guards.memBudgetBytes = config_.evalMemoryBudget;
        guards.faultPlan = config_.faultPlan;
        auto design = sim::elaborate(
            std::shared_ptr<const SourceFile>(std::move(combined)),
            w.bench->module, guards);
        TraceRecorder rec(*design, w.bench->probe);
        sim::RunLimits limits = config_.simLimits;
        if (limits.maxWallSeconds <= 0)
            limits.maxWallSeconds = config_.evalDeadlineSeconds;
        auto rr = design->run(limits);
        switch (rr.status) {
          case SimStatus::Runaway:
            v.outcome = EvalOutcome::Runaway;
            break;
          case SimStatus::Deadline:
            v.outcome = EvalOutcome::Deadline;
            break;
          case SimStatus::Crashed:
            v.outcome = EvalOutcome::Crashed;
            break;
          default:
            break;  // Finished / Idle / MaxTime: a real result
        }
        if (v.outcome != EvalOutcome::Ok) {
            v.valid = false;
            v.error = "witness bench '" + w.bench->module +
                      "': " + design->scheduler().abortReason();
            return false;
        }
        v.fit = combineFitness(
            v.fit, evaluateFitness(rec.takeTrace(), w.bench->oracle,
                                   config_.fitness));
    }
    return true;
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
        ++outcomes_.quarantineHits;
        return quarantinedVariant(patch, q->second);
    }
    if (const FitnessCache::Entry *hit = cache_.find(key)) {
        Variant v;
        v.patch = patch;
        v.evaluated = true;
        v.valid = hit->valid;
        v.fit = hit->fit;
        v.trace = hit->trace;
        v.outcome = hit->outcome;
        v.error = hit->error;
        return v;
    }
    Variant v = evaluateUncached(patch);
    if (v.valid)
        ++evals_;
    outcomes_.add(v.outcome);
    if (v.outcome == EvalOutcome::LintReject)
        // Never cached or quarantined: the decision is a pure function
        // of the patch and recomputing it is cheaper than a cache slot.
        ++lintRejects_;
    else if (isQuarantineOutcome(v.outcome))
        quarantine_.emplace(key, QuarantineEntry{v.outcome, v.error});
    else
        cache_.insert(key, FitnessCache::Entry{v.valid, v.fit, v.trace,
                                               v.outcome, v.error});
    return v;
}

std::vector<Variant>
RepairEngine::evaluateBatch(const std::vector<Patch> &patches,
                            std::vector<bool> &simulated_out,
                            const std::vector<double> *elite_fitness)
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

    // Early-abort survival tracker, seeded with the merge-pool members
    // already decided (the elites) and fed every resolved child in
    // child order. Any snapshot of its threshold is a lower bound on
    // the generation's final survival cutoff, so aborting strictly
    // below it is sound (see DESIGN.md).
    const bool abort_armed = elite_fitness && config_.earlyAbort;
    SurvivalTracker tracker(static_cast<size_t>(config_.popSize));
    if (abort_armed)
        for (double f : *elite_fitness)
            tracker.submit(f);

    // Quarantine + cache lookups and in-batch dedup in child order, on
    // this thread (so all accounting and LRU order are
    // schedule-independent). Quarantine wins over everything: a
    // condemned key must never reach a worker again.
    for (size_t i = 0; i < n; ++i) {
        keys[i] = patches[i].key();
        auto q = quarantine_.find(keys[i]);
        if (q != quarantine_.end()) {
            source[i] = Source::Quarantined;
            ++outcomes_.quarantineHits;
            out[i] = quarantinedVariant(patches[i], q->second);
            if (abort_armed)
                tracker.submit(out[i].fit.fitness);
            continue;
        }
        auto dup = first_occurrence.find(keys[i]);
        if (dup != first_occurrence.end()) {
            source[i] = Source::Duplicate;
            dup_of[i] = dup->second;
            cache_.noteDuplicateHit();
            // Duplicates resolve after simulation; not submitting them
            // keeps the threshold conservative (sound, merely fewer
            // aborts).
            continue;
        }
        if (const FitnessCache::Entry *hit = cache_.find(keys[i])) {
            source[i] = Source::Cached;
            out[i].patch = patches[i];
            out[i].evaluated = true;
            out[i].valid = hit->valid;
            out[i].fit = hit->fit;
            out[i].trace = hit->trace;
            out[i].outcome = hit->outcome;
            out[i].error = hit->error;
            if (abort_armed)
                tracker.submit(out[i].fit.fitness);
            continue;
        }
        first_occurrence.emplace(keys[i], i);
        fresh.push_back(i);
    }

    // Consult the fleet-shared cache once for everything the local
    // cache missed. A fleet hit carries an exact score (aborted
    // evaluations are never published), so substituting it for a fresh
    // simulation cannot change any search decision — only how much
    // work this island performs. Hits are adopted into the local cache
    // during the ordered merge below, exactly where a fresh result
    // would have landed.
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
                if (abort_armed)
                    tracker.submit(out[i].fit.fitness);
                continue;
            }
            if (auto h = hits.find(keys[i]); h != hits.end()) {
                source[i] = Source::FleetCached;
                out[i].patch = patches[i];
                out[i].evaluated = true;
                out[i].valid = h->second.valid;
                out[i].fit = h->second.fit;
                out[i].trace = h->second.trace;
                out[i].outcome = h->second.outcome;
                out[i].error = h->second.error;
                if (abort_armed)
                    tracker.submit(out[i].fit.fitness);
                continue;
            }
            still.push_back(i);
        }
        fresh = std::move(still);
    }

    // Fresh simulations run in fixed-size chunks. Each chunk's jobs
    // carry the threshold snapshotted at dispatch (by value), and the
    // tracker is updated only at chunk boundaries, in child order, on
    // this thread — so the aborted set depends on the seed alone, not
    // on the thread count or scheduling.
    constexpr size_t kAbortChunk = 16;
    for (size_t c = 0; c < fresh.size(); c += kAbortChunk) {
        const size_t end = std::min(fresh.size(), c + kAbortChunk);
        EvalHints hints;
        hints.streaming = true;
        if (abort_armed)
            hints.abortThreshold = tracker.threshold();
        std::vector<std::function<void()>> jobs;
        jobs.reserve(end - c);
        for (size_t j = c; j < end; ++j) {
            const size_t i = fresh[j];
            jobs.push_back([this, &patches, &out, i, hints] {
                out[i] = evaluateUncached(patches[i], hints);
            });
        }
        pool().run(jobs);
        if (abort_armed)
            for (size_t j = c; j < end; ++j)
                tracker.submit(out[fresh[j]].fit.fitness);
    }

    // Merge in child order; only this thread touches the cache, the
    // quarantine and the outcome counters.
    std::vector<std::pair<std::string, FitnessCache::Entry>> publish_scored;
    std::vector<std::pair<std::string, QuarantineEntry>> publish_condemned;
    simulated_out.assign(n, false);
    for (size_t i = 0; i < n; ++i) {
        switch (source[i]) {
          case Source::Fresh:
            simulated_out[i] = out[i].valid;
            outcomes_.add(out[i].outcome);
            if (out[i].valid) {
                rowsScored_ += out[i].rowsScored;
                rowsSkipped_ += oracle_.rows().size() -
                                std::min<size_t>(oracle_.rows().size(),
                                                 out[i].rowsScored);
            }
            if (out[i].outcome == EvalOutcome::EarlyAbort) {
                // Never cached: the partial score is only meaningful
                // against this generation's threshold. A later
                // encounter (possibly under a lower cutoff, or during
                // minimization) must re-simulate in full.
                ++earlyAborts_;
            } else if (out[i].outcome == EvalOutcome::LintReject) {
                // Never cached (pure function of the patch) and never
                // quarantined (the patch never simulated, so it earned
                // no pathology verdict).
                ++lintRejects_;
            } else if (isQuarantineOutcome(out[i].outcome)) {
                quarantine_.emplace(
                    keys[i],
                    QuarantineEntry{out[i].outcome, out[i].error});
                if (config_.fleetPublish)
                    publish_condemned.emplace_back(
                        keys[i],
                        QuarantineEntry{out[i].outcome, out[i].error});
            } else {
                FitnessCache::Entry entry{out[i].valid, out[i].fit,
                                          out[i].trace, out[i].outcome,
                                          out[i].error};
                cache_.insert(keys[i], entry);
                if (config_.fleetPublish)
                    publish_scored.emplace_back(keys[i], std::move(entry));
            }
            break;
          case Source::FleetCached:
            // An exact score computed by another island. Adopt it into
            // the local cache at the exact merge slot a fresh
            // simulation would have used, and account for it like a
            // simulated candidate — the search trajectory is identical
            // either way, only the work counters differ.
            simulated_out[i] = out[i].valid;
            outcomes_.add(out[i].outcome);
            ++fleetCacheHits_;
            cache_.insert(keys[i],
                          FitnessCache::Entry{out[i].valid, out[i].fit,
                                              out[i].trace, out[i].outcome,
                                              out[i].error});
            break;
          case Source::FleetQuarantined:
            ++fleetQuarantineHits_;
            quarantine_.emplace(
                keys[i],
                QuarantineEntry{out[i].outcome, out[i].error});
            break;
          case Source::Duplicate:
            out[i] = out[dup_of[i]];
            out[i].patch = patches[i];
            break;
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

FaultLocResult
RepairEngine::localize(const Variant &v, const SourceFile &ast) const
{
    const Module *dut = ast.findModule(dutModule_);
    if (!dut)
        return FaultLocResult{};
    if (!v.evaluated || !v.valid)
        return faultLocalize(*dut, Trace{}, oracle_);
    return faultLocalize(*dut, v.trace, oracle_);
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
    st.evals = evals_;
    st.invalid = invalid_;
    st.mutants = mutants_;
    st.earlyAborts = earlyAborts_;
    st.rowsScored = rowsScored_;
    st.rowsSkipped = rowsSkipped_;
    st.lintRejects = lintRejects_;
    st.elapsedSeconds = elapsed_seconds;
    st.bestSeen = best_seen;
    st.trajectory = trajectory;
    st.outcomes = outcomes_;
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
    st.cacheStats = cache_.stats();
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
            result.fitnessTrajectory.emplace_back(evals_, best_seen);
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
            ++mutants_;
            if (!vs[i].valid)
                ++invalid_;
            if (simulated[i])
                ++evals_;
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
        result.fitnessEvals = evals_;
        result.invalidMutants = invalid_;
        result.totalMutants = mutants_;
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
            result.fitnessEvals = evals_;
            result.seconds = elapsed();
        }
        result.cache = cache_.stats();
        result.outcomes = outcomes_;
        result.earlyAborts = earlyAborts_;
        result.rowsScored = rowsScored_;
        result.rowsSkipped = rowsSkipped_;
        result.lintRejects = lintRejects_;
        result.fleetCacheHits = fleetCacheHits_;
        result.fleetQuarantineHits = fleetQuarantineHits_;
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
        evals_ = restore->evals;
        invalid_ = restore->invalid;
        mutants_ = restore->mutants;
        earlyAborts_ = restore->earlyAborts;
        rowsScored_ = restore->rowsScored;
        rowsSkipped_ = restore->rowsSkipped;
        lintRejects_ = restore->lintRejects;
        outcomes_ = restore->outcomes;
        best_seen = restore->bestSeen;
        result.fitnessTrajectory = restore->trajectory;
        result.generations = restore->generationsDone;
        quarantine_.clear();
        for (const QuarantineRecord &q : restore->quarantine)
            quarantine_.emplace(q.key, q.entry);
        cache_ = FitnessCache(config_.fitnessCacheSize);
        for (const CacheRecord &c : restore->cache)
            cache_.insert(c.key, c.entry);  // LRU-first, see snapshot.h
        cache_.setStats(restore->cacheStats);
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
        const int offspring = config_.offspringPerGen > 0
                                  ? config_.offspringPerGen
                                  : config_.popSize;
        std::vector<Patch> planned;
        int attempts = 0;
        const int max_attempts = offspring * 16 + 16;
        while (static_cast<int>(planned.size()) < offspring &&
               attempts++ < max_attempts) {
            if (elapsed() >= config_.maxSeconds || stopRequested())
                break;
            const Variant &parent = tournament(popn);
            auto parent_ast = applyPatch(*faulty_, parent.patch);
            const Module *dut = parent_ast->findModule(dutModule_);
            if (!dut)
                break;
            FaultLocResult fl =
                config_.relocalize ? localize(parent, *parent_ast)
                                   : static_fl;

            if (uniform(rng_) <= config_.rtThreshold) {
                // Repair templates.
                Patch p = parent.patch;
                if (auto e = mutator.templateEdit(*parent_ast, *dut,
                                                  fl.nodeIds)) {
                    p.edits.push_back(std::move(*e));
                    planned.push_back(std::move(p));
                }
            } else if (uniform(rng_) <= config_.mutThreshold) {
                // Mutation operators.
                Patch p = parent.patch;
                if (auto e =
                        mutator.mutate(*parent_ast, *dut, fl.nodeIds)) {
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

        // (b) Fan the children out to the pool, (c) merge in child
        // order. The elites' fitness values seed the early-abort
        // survival tracker: they are the only merge-pool members known
        // before the offspring evaluate, and they match what the merge
        // below will actually carry over.
        std::vector<double> elite_fitness;
        {
            elite_fitness.reserve(popn.size());
            for (const Variant &v : popn)
                elite_fitness.push_back(v.fit.fitness);
            std::sort(elite_fitness.begin(), elite_fitness.end(),
                      std::greater<double>());
            const size_t elites = static_cast<size_t>(std::max(
                1, static_cast<int>(config_.elitism *
                                    static_cast<double>(popn.size()))));
            if (elite_fitness.size() > elites)
                elite_fitness.resize(elites);
        }
        std::vector<bool> simulated;
        auto vs = evaluateBatch(planned, simulated, &elite_fitness);
        std::vector<Variant> children;
        if (const Variant *w = absorb(vs, simulated, children))
            return finish(w);

        // Elitism: keep the top e% of the previous generation.
        // Stable sorts here and below: the survivor ORDER (which
        // tournament indexes into) must be a function of the members'
        // input order and fitness alone, never of how the sort
        // algorithm permutes ties — that makes it provably independent
        // of score perturbations below the truncation cutoff (e.g. an
        // early-aborted candidate carrying a partial score in one run
        // and an exact fleet-shared score in another).
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
        // population to the island coordinator and splice the returned
        // rank-ordered migrant set in, all before the boundary snapshot
        // below — a crash after the snapshot resumes with migrants
        // already injected and the ledger already appended, and a crash
        // before it re-runs the whole generation (same RNG stream, same
        // export, same injection). The hook may block on remote islands
        // but must not touch this engine's RNG.
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
        if (!config_.snapshotPath.empty() && config_.snapshotEvery > 0 &&
            (gen + 1) % config_.snapshotEvery == 0)
            saveSnapshot(config_.snapshotPath,
                         captureState(gen + 1, popn, elapsed(),
                                      best_seen,
                                      result.fitnessTrajectory));
        if (config_.onGeneration) {
            GenerationStats gs;
            gs.generation = gen + 1;
            gs.bestFitness = popn.empty() ? 0.0 : popn[0].fit.fitness;
            gs.fitnessEvals = evals_;
            gs.invalidMutants = invalid_;
            gs.totalMutants = mutants_;
            gs.outcomes = outcomes_;
            gs.cache = cache_.stats();
            gs.quarantined = quarantine_.size();
            gs.lintRejects = lintRejects_;
            gs.witnessBenches = static_cast<int>(witnessRt_.size());
            gs.elapsedSeconds = elapsed();
            gs.fleetCacheHits = fleetCacheHits_;
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
