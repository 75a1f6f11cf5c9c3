/**
 * @file
 * The search counters on disk and on the wire. One SearchCounters
 * struct feeds the snapshot, the result payload, the generation events
 * and the fleet frames; these cases pin the formats it is written in
 * against a recording, so a counter that goes missing, changes value
 * or changes name in any of them fails here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <type_traits>

#include <unistd.h>

#include "benchmarks/registry.h"
#include "core/scenario.h"
#include "core/snapshot.h"
#include "service/jobqueue.h"
#include "service/session.h"

using namespace cirfix;
using namespace cirfix::core;
using service::Json;

namespace {

// Recorded from counter_incorrect_reset (pop 100, seed 7, one thread,
// three generations) before the counters moved into SearchCounters.
// The snapshot hash is over the checkpoint written after generation 3
// with its elapsed time zeroed (wall-clock time is the one field of a
// snapshot that is not a function of the seed); the result payload
// lacks its "seconds" for the same reason. The hash is of the format v10
// encoding: the v9 checkpoint of this run (hash 16353313929871951398),
// decoded and re-encoded as v10, gives the same value.
constexpr uint64_t kRecordedSnapshotHash = 4948411692762643798ull;

const char *kRecordedResult = R"({"cache":{"evictions":0,"hits":103,
"misses":298},"final_fitness":{"fitness":0,"sum":0,"total":0},
"fitness_evals":298,"found":false,"generations":3,"invalid_mutants":0,
"outcomes":{"crashed":0,"deadline":0,"elab-fail":0,
"lint-reject":0,"ok":298,"oom":0,"parse-fail":0,"quarantine_hits":0,
"runaway":0},"stopped":false,"total_mutants":401,"trajectory":[[1,
0.076923076923076927],[3,0.087248322147651006],[12,0.18309859154929578],
[50,0.20000000000000001],[146,0.21428571428571427],[168,
0.23404255319148937],[243,0.74468085106382975],[297,
0.75714285714285712]]})";

const char *kRecordedEvent = R"({"best_fitness":0.75714285714285712,
"cache":{"evictions":0,"hits":103,"misses":298},"event":"generation",
"fitness_evals":298,"generation":3,"id":1,"invalid_mutants":0,
"outcomes":{"crashed":0,"deadline":0,"elab-fail":0,
"lint-reject":0,"ok":298,"oom":0,"parse-fail":0,"quarantine_hits":0,
"runaway":0},"quarantined":0,"total_mutants":401,"type":"event"})";

/** Every member of @p want is in @p got with an equal value, recursing
 *  into objects: @p got may add keys, never drop or change one. */
void
expectKeptKeys(const Json &want, const Json &got, const std::string &at)
{
    if (!want.isObject() || !got.isObject()) {
        EXPECT_EQ(got.dump(), want.dump()) << "at " << at;
        return;
    }
    for (const auto &[key, value] : want.members()) {
        const Json *g = got.find(key);
        if (!g)
            ADD_FAILURE() << "missing key " << at << key;
        else
            expectKeptKeys(value, *g, at + key + ".");
    }
}

/** Every counter set to a distinct multiple of @p step. */
SearchCounters
distinctCounters(long step)
{
    SearchCounters c;
    long next = step;
    forEachCounter(
        [&](const char *, const char *, auto &field) {
            field = static_cast<std::decay_t<decltype(field)>>(next);
            next += step;
        },
        c);
    return c;
}

} // namespace

namespace cirfix::core {

/** Failure messages show counters by wire name, not as bytes. */
void
PrintTo(const SearchCounters &c, std::ostream *os)
{
    Json j = Json::object();
    service::countersToJson(c, j);
    *os << j.dump();
}

} // namespace cirfix::core

TEST(SearchCounters, SnapshotResultAndEventMatchRecording)
{
    const DefectSpec &d = bench::getDefect("counter_incorrect_reset");
    Scenario sc = buildScenario(bench::getProject(d.project), d);
    EngineConfig cfg;
    cfg.popSize = 100;
    cfg.maxGenerations = 3;
    cfg.maxSeconds = 600.0;  // never the binding budget
    cfg.seed = 7;
    cfg.numThreads = 1;
    cfg.snapshotPath = ::testing::TempDir() + "counters." +
                       std::to_string(::getpid()) + ".snap";
    service::JobQueue queue(service::AdmissionLimits{});
    service::Job job;
    job.id = 1;
    cfg.onGeneration = [&](const GenerationStats &gs) {
        queue.publishGeneration(job, gs);
    };
    RepairResult res = sc.makeEngine(cfg).run();
    ASSERT_EQ(res.generations, 3);

    EngineState st = loadSnapshot(cfg.snapshotPath);
    std::remove(cfg.snapshotPath.c_str());
    EXPECT_EQ(st.counters, static_cast<const SearchCounters &>(res));
    st.elapsedSeconds = 0.0;
    EXPECT_EQ(fingerprintSource(encodeSnapshot(st)),
              kRecordedSnapshotHash);

    Json result = service::resultToJson(res);
    result.remove("seconds");
    expectKeptKeys(Json::parse(kRecordedResult), result, "");
    ASSERT_EQ(job.events.size(), 3u);
    expectKeptKeys(Json::parse(kRecordedEvent), job.events.back(), "");
}

TEST(SearchCounters, EveryCounterRoundTripsThroughJsonAndSnapshot)
{
    // forEachCounter() visits every field: together they fill the
    // struct (all 8-byte counters, so no padding hides a missed one).
    size_t visited = 0;
    SearchCounters probe;
    forEachCounter(
        [&](const char *, const char *, auto &field) {
            visited += sizeof field;
        },
        probe);
    EXPECT_EQ(visited, sizeof(SearchCounters));

    const SearchCounters c = distinctCounters(1);
    Json j = Json::object();
    service::countersToJson(c, j);
    EXPECT_EQ(service::countersFromJson(j), c);

    // The snapshot carries every counter but the two fleet ones, which
    // count one process's cache hits, not search state.
    EngineState st;
    st.counters = c;
    SearchCounters want = c;
    want.fleetCacheHits = 0;
    want.fleetQuarantineHits = 0;
    EXPECT_EQ(decodeSnapshot(encodeSnapshot(st)).counters, want);

    SearchCounters sum = c;
    sum += c;
    EXPECT_EQ(sum, distinctCounters(2));

    // Missing and non-numeric keys read 0.
    Json odd = Json::object();
    odd["fitness_evals"] = "many";
    odd["cache"] = 3;
    EXPECT_EQ(service::countersFromJson(odd), SearchCounters{});
}
