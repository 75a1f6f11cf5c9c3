#include "service/session.h"

#include <filesystem>

#include "core/island.h"
#include "core/snapshot.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

namespace cirfix::service {

using namespace cirfix;

core::EngineConfig
engineConfigFromSpec(const JobSpec &spec)
{
    core::EngineConfig cfg;
    cfg.popSize = spec.params.popSize;
    cfg.maxGenerations = spec.params.maxGenerations;
    cfg.maxSeconds = spec.params.maxSeconds;
    cfg.seed = spec.params.seed;
    cfg.numThreads = spec.params.numThreads;
    cfg.fitness.phi = spec.params.phi;
    cfg.evalDeadlineSeconds = spec.params.evalDeadlineSeconds;
    cfg.evalMemoryBudget = spec.params.evalMemoryBudget;
    return cfg;
}

namespace {

/** The one JobSpec -> IslandConfig mapping (island.h). */
core::IslandConfig
islandConfigFromSpec(const JobSpec &spec)
{
    core::IslandConfig ic;
    ic.islands = spec.params.islands;
    ic.migrationInterval = spec.params.migrationInterval;
    ic.migrantsPerIsland = spec.params.migrantsPerIsland;
    return ic;
}

} // namespace

std::string
testbenchOnlySource(const verilog::SourceFile &design,
                    const verilog::SourceFile &golden)
{
    std::string out;
    for (auto &m : design.modules)
        if (!golden.findModule(m->name))
            out += verilog::print(*m) + "\n";
    return out;
}

JobInputs
buildJobInputs(const JobSpec &spec)
{
    JobInputs in;
    in.faulty = verilog::parse(spec.designSource);
    if (!in.faulty->findModule(spec.tbModule))
        throw std::runtime_error("testbench module '" + spec.tbModule +
                                 "' not found in the design source");
    if (!in.faulty->findModule(spec.dutModule))
        throw std::runtime_error("DUT module '" + spec.dutModule +
                                 "' not found in the design source");
    in.probe = sim::deriveProbeConfig(*in.faulty, spec.tbModule);
    if (!spec.oracleCsv.empty()) {
        in.oracle = sim::Trace::fromCsv(spec.oracleCsv);
    } else {
        auto golden_only = verilog::parse(spec.goldenSource);
        std::string golden_src =
            spec.goldenSource + "\n" +
            testbenchOnlySource(*in.faulty, *golden_only);
        // A client's golden is as untrusted as its design: record it
        // under the job's memory budget and deadline. The run bounds
        // stay the defaults, so a golden that passes records the same
        // oracle as an unguarded run.
        sim::SimGuards guards;
        guards.memBudgetBytes = spec.params.evalMemoryBudget;
        sim::RunLimits limits;
        limits.maxWallSeconds = spec.params.evalDeadlineSeconds;
        core::GuardedRun run = core::runGuarded(
            verilog::parse(golden_src), spec.tbModule, in.probe, guards,
            limits);
        if (run.outcome != core::EvalOutcome::Ok)
            throw std::runtime_error(
                "golden design under '" + spec.tbModule + "' ended " +
                core::evalOutcomeName(run.outcome) + ": " + run.error);
        in.oracle = std::move(run.trace);
    }
    return in;
}

Json
resultToJson(const core::RepairResult &res)
{
    Json j = Json::object();
    j["found"] = res.found;
    j["stopped"] = res.stopped;
    j["generations"] = res.generations;
    j["seconds"] = res.seconds;
    if (res.found) {
        j["patch"] = res.patch.describe();
        j["repaired_source"] = res.repairedSource;
    }
    Json fit = Json::object();
    fit["fitness"] = res.finalFitness.fitness;
    fit["sum"] = res.finalFitness.sum;
    fit["total"] = res.finalFitness.total;
    j["final_fitness"] = std::move(fit);
    Json traj = Json::array();
    for (const auto &[at, best] : res.fitnessTrajectory) {
        Json point = Json::array();
        point.push(at);
        point.push(best);
        traj.push(std::move(point));
    }
    j["trajectory"] = std::move(traj);
    countersToJson(res, j);
    return j;
}

void
countersToJson(const core::SearchCounters &c, Json &j)
{
    core::forEachCounter(
        [&j](const std::string &group, const char *key, auto value) {
            (group.empty() ? j : j[group])[key] =
                static_cast<long long>(value);
        },
        c);
}

core::SearchCounters
countersFromJson(const Json &j)
{
    core::SearchCounters c;
    core::forEachCounter(
        [&j](const std::string &group, const char *key, auto &value) {
            const Json *from = group.empty() ? &j : j.find(group);
            if (from)
                value = from->num(key, 0);
        },
        c);
    return c;
}

Json
generationToJson(const core::GenerationStats &gs)
{
    Json j = Json::object();
    j["generation"] = gs.generation;
    j["best_fitness"] = gs.bestFitness;
    j["quarantined"] = static_cast<long long>(gs.quarantined);
    if (gs.island >= 0) {
        j["island"] = gs.island;
        j["epoch"] = gs.epoch;
    }
    countersToJson(gs, j);
    return j;
}

core::GenerationStats
generationFromJson(const Json &j)
{
    core::GenerationStats gs;
    static_cast<core::SearchCounters &>(gs) = countersFromJson(j);
    gs.generation = static_cast<int>(j.num("generation", 0));
    gs.bestFitness = j.real("best_fitness", -1.0);
    gs.quarantined = static_cast<size_t>(j.num("quarantined", 0));
    gs.island = static_cast<int>(j.num("island", -1));
    gs.epoch = static_cast<int>(j.num("epoch", 0));
    return gs;
}

namespace {

/** Imported-migrant ledger records -> JSON ([{epoch, keys:[..]}]). */
Json
migrantRecordsToJson(const std::vector<core::MigrantRecord> &ledger)
{
    Json out = Json::array();
    for (const core::MigrantRecord &rec : ledger) {
        Json r = Json::object();
        r["epoch"] = rec.epoch;
        Json keys = Json::array();
        for (const std::string &k : rec.keys)
            keys.push(k);
        r["keys"] = std::move(keys);
        out.push(std::move(r));
    }
    return out;
}

/** One island's digest — the fingerprinted fields (bestFitness also
 *  as a hexfloat string, exact to the bit) plus the volatile work
 *  counters. */
Json
islandDigestToJson(const core::IslandStats &st)
{
    Json j = Json::object();
    j["island"] = st.island;
    j["generations"] = st.generations;
    j["found"] = st.found;
    j["stopped"] = st.stopped;
    j["best_fitness"] = st.bestFitness;
    j["best_fitness_hex"] = core::hexDouble(st.bestFitness);
    j["patch_key"] = st.patchKey;
    j["ledger"] = migrantRecordsToJson(st.ledger);
    countersToJson(st, j);
    return j;
}

/** Result payload of a K-island run: the winning island's result plus
 *  the "islands" block — configuration, winner, per-island digests,
 *  sealed broadcasts, migration totals and the canonical fingerprint
 *  (a decimal string: it is a uint64). */
Json
islandOutcomeToJson(const core::IslandOutcome &outcome, uint64_t seed,
                    const core::IslandConfig &cfg)
{
    Json j = Json::object();
    j["count"] = cfg.islands;
    j["migration_interval"] = cfg.migrationInterval;
    j["migrants_per_island"] = cfg.migrantsPerIsland;
    j["seed"] = static_cast<long long>(seed);
    j["found"] = outcome.found;
    j["winner_island"] = outcome.winnerIsland;
    j["winner_epoch"] = outcome.winnerEpoch;
    j["fingerprint"] = std::to_string(outcome.fingerprint);
    Json digests = Json::array();
    for (const core::IslandStats &st : outcome.islands)
        digests.push(islandDigestToJson(st));
    j["islands"] = std::move(digests);
    Json bc = Json::array();
    for (const auto &[epoch, keys] : outcome.broadcasts) {
        Json b = Json::object();
        b["epoch"] = epoch;
        Json ks = Json::array();
        for (const std::string &k : keys)
            ks.push(k);
        b["keys"] = std::move(ks);
        bc.push(std::move(b));
    }
    j["broadcasts"] = std::move(bc);
    Json mig = Json::object();
    mig["elites_exported"] = outcome.migration.elitesExported;
    mig["migrants_broadcast"] = outcome.migration.migrantsBroadcast;
    mig["migrant_duplicates"] = outcome.migration.migrantDuplicates;
    mig["elites_lost"] = outcome.migration.elitesLost;
    j["migration"] = std::move(mig);
    Json result = resultToJson(outcome.result);
    result["islands"] = std::move(j);
    return result;
}

std::string
islandCheckpointDir(const std::string &snapshotPath)
{
    return snapshotPath + ".d";
}

} // namespace

void
removeCheckpoint(const std::string &snapshotPath)
{
    std::error_code ec;
    std::filesystem::remove(snapshotPath, ec);
    std::filesystem::remove_all(islandCheckpointDir(snapshotPath), ec);
}

SessionOutcome
runRepairJob(const JobSpec &spec, const std::string &snapshotPath,
             const std::function<void(const core::GenerationStats &)>
                 &onGeneration,
             const std::function<bool()> &shouldStop,
             const std::string &provenance)
{
    SessionOutcome out;
    try {
        JobInputs in = buildJobInputs(spec);
        core::EngineConfig cfg = engineConfigFromSpec(spec);
        if (spec.params.islands > 1) {
            // In-process K-island run (daemon worker or CLI): the
            // islands, the barrier and the shared fitness store all
            // live in this process. Checkpoints land in a per-job
            // directory next to where the plain snapshot would go.
            core::IslandConfig ic = islandConfigFromSpec(spec);
            cfg.snapshotProvenance = provenance;
            std::string dir;
            if (!snapshotPath.empty()) {
                dir = islandCheckpointDir(snapshotPath);
                std::filesystem::create_directories(dir);
            }
            core::IslandOutcome outcome = core::runIslands(
                in.faulty, spec.tbModule, spec.dutModule, in.probe,
                in.oracle, cfg, ic, dir, onGeneration, shouldStop);
            out.result = islandOutcomeToJson(outcome, cfg.seed, ic);
            out.state = outcome.result.stopped && !outcome.found
                            ? JobState::Canceled
                            : JobState::Done;
            return out;
        }
        cfg.snapshotPath = snapshotPath;
        cfg.snapshotProvenance = provenance;
        cfg.onGeneration = onGeneration;
        cfg.shouldStop = shouldStop;
        core::RepairEngine engine(in.faulty, spec.tbModule,
                                  spec.dutModule, in.probe,
                                  std::move(in.oracle), cfg);
        core::RepairResult res;
        if (!snapshotPath.empty() &&
            std::filesystem::exists(snapshotPath)) {
            // Daemon restart or a rerun CLI command: continue the
            // interrupted run exactly where its last durable generation
            // left it.
            core::EngineState state = core::loadSnapshot(snapshotPath);
            res = engine.resume(state);
        } else {
            res = engine.run();
        }
        out.result = resultToJson(res);
        // A stop that the cancel flag (or daemon shutdown) requested is
        // a cancel, not a completed search.
        out.state = res.stopped ? JobState::Canceled : JobState::Done;
    } catch (const std::exception &e) {
        out.state = JobState::Failed;
        out.error = e.what();
    } catch (...) {
        out.state = JobState::Failed;
        out.error = "unknown exception";
    }
    return out;
}

} // namespace cirfix::service
