/**
 * @file
 * Checkpoint/resume tests: snapshots round-trip byte-exactly, a
 * resumed run is bit-identical to an uninterrupted one (the ISSUE's
 * acceptance criterion is tested literally, with SIGKILL mid-run and
 * resume from the latest snapshot), and corrupt or mismatched
 * snapshots are rejected instead of misparsed.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "core/engine.h"
#include "core/scenario.h"
#include "core/snapshot.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::core;
using namespace cirfix::verilog;
using sim::ProbeConfig;
using sim::TraceRecorder;

namespace {

const char *kGoldenToggle = R"(
module dut (clk, rst, q);
    input clk, rst;
    output q;
    reg q;
    always @(posedge clk) begin
        if (rst == 1'b1) begin
            q <= 1'b0;
        end
        else begin
            q <= !q;
        end
    end
endmodule
module tb;
    reg clk, rst;
    wire q;
    dut d (.clk(clk), .rst(rst), .q(q));
    initial begin
        clk = 0;
        rst = 1;
        #12 rst = 0;
        #100 $finish;
    end
    always #5 clk = !clk;
endmodule
)";

/**
 * Two seeded defects (inverted reset polarity AND a non-toggling
 * feedback) so the repair needs a multi-edit patch: with popSize 12
 * and seed 7 the engine provably finds it in generation 6 and not a
 * generation earlier, which keeps every snapshot-writing and
 * kill/resume path below live instead of short-circuiting on an
 * easy gen-1 repair.
 */
std::string
faultyToggle()
{
    std::string s = kGoldenToggle;
    s.replace(s.find("rst == 1'b1"), 11, "rst != 1'b1");
    s.replace(s.find("q <= !q"), 7, "q <= q");
    return s;
}

struct MiniScenario
{
    std::shared_ptr<const SourceFile> faulty;
    ProbeConfig probe;
    Trace oracle;

    MiniScenario()
    {
        std::shared_ptr<const SourceFile> golden =
            parse(kGoldenToggle);
        probe = sim::deriveProbeConfig(*golden, "tb");
        auto design = sim::elaborate(golden, "tb");
        TraceRecorder rec(*design, probe);
        design->run();
        oracle = rec.takeTrace();
        faulty = parse(faultyToggle());
    }

    RepairEngine
    engine(EngineConfig cfg) const
    {
        return RepairEngine(faulty, "tb", "dut", probe, oracle, cfg);
    }
};

/** Per-process path: the asan.-prefixed copy of this test runs in
 *  another process at the same time and must not share the file. */
std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

EngineConfig
baseConfig()
{
    EngineConfig cfg;
    cfg.popSize = 12;
    cfg.maxGenerations = 6;  // the seed-7 repair lands in generation 6
    cfg.maxSeconds = 120.0;  // generous: time limits never bind here
    cfg.seed = 7;
    return cfg;
}

void
expectSameResult(const RepairResult &a, const RepairResult &b)
{
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.patch.key(), b.patch.key());
    EXPECT_EQ(a.repairedSource, b.repairedSource);
    EXPECT_EQ(a.generations, b.generations);
    EXPECT_EQ(a.fitnessEvals, b.fitnessEvals);
    EXPECT_EQ(a.invalidMutants, b.invalidMutants);
    EXPECT_EQ(a.totalMutants, b.totalMutants);
    EXPECT_EQ(a.fitnessTrajectory, b.fitnessTrajectory);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.cache.evictions, b.cache.evictions);
    EXPECT_EQ(a.outcomes.counts, b.outcomes.counts);
    EXPECT_EQ(a.outcomes.quarantineHits, b.outcomes.quarantineHits);
    EXPECT_DOUBLE_EQ(a.finalFitness.fitness, b.finalFitness.fitness);
}

// ------------------------------------------------------------------
// Format round-trip
// ------------------------------------------------------------------

TEST(Snapshot, EncodeDecodeIsByteExact)
{
    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 2;
    cfg.snapshotPath = tmpPath("roundtrip.snap");
    auto engine = sc.engine(cfg);
    engine.run();

    std::string bytes = slurp(cfg.snapshotPath);
    ASSERT_FALSE(bytes.empty());
    EngineState state = decodeSnapshot(bytes);
    // decode(encode(decode(x))) — field-exact implies byte-exact.
    EXPECT_EQ(encodeSnapshot(state), bytes);
    EXPECT_EQ(state.seed, cfg.seed);
    EXPECT_GE(state.generationsDone, 1);
    EXPECT_FALSE(state.population.empty());
    std::remove(cfg.snapshotPath.c_str());
}

TEST(Snapshot, RejectsGarbageAndWrongVersion)
{
    EXPECT_THROW(decodeSnapshot("not a snapshot\n"),
                 std::runtime_error);
    EXPECT_THROW(decodeSnapshot(""), std::runtime_error);

    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.snapshotPath = tmpPath("version.snap");
    auto engine = sc.engine(cfg);
    engine.run();
    std::string bytes = slurp(cfg.snapshotPath);
    ASSERT_EQ(bytes.rfind("CIRFIX-SNAPSHOT 10\n", 0), 0u);
    std::string wrong = bytes;
    wrong.replace(0, 19, "CIRFIX-SNAPSHOT 99\n");
    try {
        decodeSnapshot(wrong);
        FAIL() << "expected version rejection";
    } catch (const std::runtime_error &e) {
        // The diagnostic names BOTH versions (the file's and the
        // readable range) and tells the user the remedy.
        std::string what = e.what();
        EXPECT_NE(what.find("version 99"), std::string::npos) << what;
        EXPECT_NE(what.find("7..10"), std::string::npos) << what;
        EXPECT_NE(what.find("newer cirfix"), std::string::npos)
            << what;
    }
    // A version-1 file (no checksum seal) is likewise rejected by
    // version, not misparsed.
    std::string v1 = bytes;
    v1.replace(0, 19, "CIRFIX-SNAPSHOT 1\n");
    EXPECT_THROW(decodeSnapshot(v1), std::runtime_error);
    // Truncation anywhere must throw, never misparse.
    EXPECT_THROW(decodeSnapshot(bytes.substr(0, bytes.size() / 2)),
                 std::runtime_error);
    std::remove(cfg.snapshotPath.c_str());
}

TEST(Snapshot, IslandProvenanceAndLedgerRoundTrip)
{
    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.islandIndex = 2;
    cfg.islandCount = 4;
    cfg.snapshotPath = tmpPath("island.snap");
    auto engine = sc.engine(cfg);
    engine.run();

    EngineState state = loadSnapshot(cfg.snapshotPath);
    EXPECT_EQ(state.islandIndex, 2);
    EXPECT_EQ(state.islandCount, 4);
    EXPECT_EQ(state.migrationEpoch, 0);
    EXPECT_TRUE(state.migrantLedger.empty());

    // The migrant ledger round-trips byte-exactly, including keys
    // with newlines and blanks (they travel as length-prefixed
    // blobs, not lines).
    MigrantRecord e1;
    e1.epoch = 1;
    e1.keys = {"k:1|alpha", "k:2|with\nnewline", ""};
    MigrantRecord e2;
    e2.epoch = 2;
    e2.keys = {"k:9"};
    state.migrantLedger = {e1, e2};
    state.migrationEpoch = 2;
    std::string bytes = encodeSnapshot(state);
    EngineState back = decodeSnapshot(bytes);
    EXPECT_EQ(encodeSnapshot(back), bytes);
    ASSERT_EQ(back.migrantLedger.size(), 2u);
    EXPECT_EQ(back.migrantLedger[0].epoch, 1);
    EXPECT_EQ(back.migrantLedger[0].keys, e1.keys);
    EXPECT_EQ(back.migrantLedger[1].keys, e2.keys);
    EXPECT_EQ(back.migrationEpoch, 2);
    std::remove(cfg.snapshotPath.c_str());
}

TEST(Snapshot, V7FileLoadsAsPlainRun)
{
    // Forward compat: v7 (no island records), v8 and v9 snapshots
    // still load. v9 and older carry the retired "stream" line (early
    // aborts, rows scored and skipped, lint rejects) and an early-abort
    // outcome count, v7 and v8 also the retired "compiled" counters
    // line; the decoder must drop them all. A v7 file comes back as
    // "not an island run" — island -1 of 0, empty ledger — rather than
    // garbage or a rejection. Each old stream is synthesized from a
    // fresh v10 one, so it must decode to exactly the same state and
    // resume to the same result.
    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.snapshotPath = tmpPath("v7compat.snap");
    auto engine = sc.engine(cfg);
    engine.run();
    std::string v10 = slurp(cfg.snapshotPath);
    ASSERT_EQ(v10.rfind("CIRFIX-SNAPSHOT 10\n", 0), 0u);
    EXPECT_EQ(v10.find("\nstream "), std::string::npos);
    EXPECT_EQ(v10.find("\ncompiled "), std::string::npos);

    // Stamp @p version and re-seal the checksum.
    auto reseal = [](std::string body, const std::string &version) {
        body.replace(0, body.find('\n') + 1,
                     "CIRFIX-SNAPSHOT " + version + "\n");
        size_t seal = body.rfind("\nchecksum ");
        EXPECT_NE(seal, std::string::npos);
        body.erase(seal + 1);
        return body + "checksum " +
               std::to_string(fingerprintSource(body)) + "\nend\n";
    };
    // v9: lintRejects ended the "stream" line after "progress", and
    // the outcomes line counted early aborts just before lint rejects.
    std::string body = v10;
    size_t progressEnd = body.find('\n', body.find("\nprogress ") + 1);
    ASSERT_NE(progressEnd, std::string::npos);
    size_t lintAt = body.rfind(' ', progressEnd);
    body.replace(lintAt, 1, "\nstream 3 575 12 ");
    size_t outcomesEnd = body.find('\n', body.find("\noutcomes ") + 1);
    ASSERT_NE(outcomesEnd, std::string::npos);
    size_t quarantineAt = body.rfind(' ', outcomesEnd);
    body.insert(body.rfind(' ', quarantineAt - 1), " 5");
    std::string v9 = reseal(body, "9");
    // v8: the retired counters line sat right before the island record.
    size_t isl = body.find("\nisland ");
    ASSERT_NE(isl, std::string::npos);
    body.insert(isl + 1, "compiled 3 1 7 2 4096 5\n");
    std::string v8 = reseal(body, "8");
    // v7: additionally drop the island + ledger records.
    isl = body.find("\nisland ");
    size_t ledger = body.find("\nledger ", isl);
    ASSERT_NE(ledger, std::string::npos);
    size_t ledgerEnd = body.find('\n', ledger + 1);
    ASSERT_NE(ledgerEnd, std::string::npos);
    body.erase(isl, ledgerEnd - isl);
    std::string v7 = reseal(body, "7");

    auto fresh = sc.engine(baseConfig());
    RepairResult want = fresh.resume(decodeSnapshot(v10));
    ASSERT_TRUE(want.found);
    for (const std::string *old : {&v7, &v8, &v9}) {
        SCOPED_TRACE(old->substr(0, 17));
        EngineState st = decodeSnapshot(*old);
        EXPECT_EQ(st.islandIndex, -1);
        EXPECT_EQ(st.islandCount, 0);
        EXPECT_EQ(st.migrationEpoch, 0);
        EXPECT_TRUE(st.migrantLedger.empty());
        EXPECT_EQ(st.seed, cfg.seed);
        EXPECT_EQ(encodeSnapshot(st), v10);

        auto resumer = sc.engine(baseConfig());
        RepairResult resumed = resumer.resume(st);
        EXPECT_TRUE(resumed.found);
        EXPECT_EQ(resumed.patch.key(), want.patch.key());
        EXPECT_EQ(resumed.repairedSource, want.repairedSource);
        EXPECT_EQ(resumed.generations, want.generations);
        EXPECT_EQ(resumed.fitnessEvals, want.fitnessEvals);
    }
    std::remove(cfg.snapshotPath.c_str());
}

/** A checkpoint written by a v9 build, before early abort went:
 *  counter_incorrect_reset at pop 8, seed 7, one thread, stopped after
 *  generation 3 of 8. It resumes to the uninterrupted run's result,
 *  which the same build recorded as 52 fitness probes over 8
 *  generations, no repair. */
TEST(Snapshot, V9CheckpointFromAnOlderBuildResumes)
{
    const DefectSpec &d = bench::getDefect("counter_incorrect_reset");
    Scenario sc = buildScenario(bench::getProject(d.project), d);
    EngineConfig cfg;
    cfg.popSize = 8;
    cfg.maxGenerations = 8;
    cfg.maxSeconds = 1e9;  // the clock must not shape the search
    cfg.seed = 7;
    cfg.numThreads = 1;
    RepairResult full = sc.makeEngine(cfg).run();
    EXPECT_FALSE(full.found);
    EXPECT_EQ(full.generations, 8);
    EXPECT_EQ(full.fitnessEvals, 52);

    EngineState st = loadSnapshot(std::string(CIRFIX_TEST_DATA_DIR) +
                                  "/counter_incorrect_reset_pop8_gen3"
                                  ".v9.snap");
    EXPECT_EQ(st.generationsDone, 3);
    EXPECT_EQ(st.counters.fitnessEvals, 23);
    RepairResult resumed = sc.makeEngine(cfg).resume(st);
    expectSameResult(full, resumed);
}

TEST(Snapshot, ResumeRejectsIslandProvenanceMismatch)
{
    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.islandIndex = 1;
    cfg.islandCount = 4;
    cfg.snapshotPath = tmpPath("islandslot.snap");
    auto engine = sc.engine(cfg);
    engine.run();
    EngineState state = loadSnapshot(cfg.snapshotPath);

    // Wrong slot of the same job: refused, with both slots named.
    EngineConfig other = cfg;
    other.islandIndex = 0;
    other.snapshotPath.clear();
    auto wrongSlot = sc.engine(other);
    try {
        wrongSlot.resume(state);
        FAIL() << "expected island-provenance rejection";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("island provenance mismatch"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("island 1 of 4"), std::string::npos)
            << what;
        EXPECT_NE(what.find("island 0 of 4"), std::string::npos)
            << what;
    }

    // A plain (non-island) engine refuses an island snapshot too.
    EngineConfig plain = baseConfig();
    auto plainEngine = sc.engine(plain);
    EXPECT_THROW(plainEngine.resume(state), std::runtime_error);
    std::remove(cfg.snapshotPath.c_str());
}

TEST(Snapshot, RejectsTruncationAtEveryRecordBoundary)
{
    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.snapshotPath = tmpPath("truncate.snap");
    auto engine = sc.engine(cfg);
    engine.run();
    std::string bytes = slurp(cfg.snapshotPath);
    ASSERT_GT(bytes.size(), 64u);

    // Cut the file at every line boundary (mid-record for multi-line
    // records like variants): each prefix must be rejected with a
    // diagnostic, never silently decoded to partial state.
    size_t boundaries = 0;
    for (size_t nl = bytes.find('\n'); nl != std::string::npos;
         nl = bytes.find('\n', nl + 1)) {
        if (nl + 1 >= bytes.size())
            break;  // the full file decodes, of course
        ++boundaries;
        EXPECT_THROW(decodeSnapshot(bytes.substr(0, nl + 1)),
                     std::runtime_error)
            << "prefix of " << nl + 1 << " bytes decoded";
    }
    EXPECT_GT(boundaries, 10u);

    // And a cut in the *middle* of a blob payload (the population's
    // trace CSV) as well as mid-line.
    size_t blob = bytes.find("trace blob ");
    ASSERT_NE(blob, std::string::npos);
    EXPECT_THROW(decodeSnapshot(bytes.substr(0, blob + 20)),
                 std::runtime_error);
    std::remove(cfg.snapshotPath.c_str());
}

TEST(Snapshot, RejectsBitFlipsAndTrailingGarbage)
{
    MiniScenario sc;
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.snapshotPath = tmpPath("bitflip.snap");
    auto engine = sc.engine(cfg);
    engine.run();
    std::string bytes = slurp(cfg.snapshotPath);

    // Flip one character inside a blob payload: the record lengths all
    // still parse, so only the checksum can catch it.
    size_t blob = bytes.find("trace blob ");
    ASSERT_NE(blob, std::string::npos);
    size_t payload = bytes.find('\n', blob) + 2;
    ASSERT_LT(payload, bytes.size());
    std::string flipped = bytes;
    flipped[payload] = flipped[payload] == '0' ? '1' : '0';
    try {
        decodeSnapshot(flipped);
        FAIL() << "expected checksum rejection";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }

    // Bytes appended after the end marker are rejected too.
    EXPECT_THROW(decodeSnapshot(bytes + "stray\n"),
                 std::runtime_error);
    std::remove(cfg.snapshotPath.c_str());
}

TEST(Snapshot, LoadMissingFileThrows)
{
    EXPECT_THROW(loadSnapshot(tmpPath("does-not-exist.snap")),
                 std::runtime_error);
}

// ------------------------------------------------------------------
// Resume equivalence
// ------------------------------------------------------------------

TEST(Snapshot, ResumeContinuesBitIdentically)
{
    MiniScenario sc;

    // Uninterrupted reference run.
    RepairResult full;
    {
        auto engine = sc.engine(baseConfig());
        full = engine.run();
    }

    // Interrupted run: stop after 2 generations (the snapshot is the
    // state a killed process would leave behind), then resume with the
    // full generation budget.
    std::string snap = tmpPath("resume.snap");
    {
        EngineConfig cfg = baseConfig();
        cfg.maxGenerations = 2;
        cfg.snapshotPath = snap;
        auto engine = sc.engine(cfg);
        RepairResult partial = engine.run();
        // The two-fault defect is not repairable by generation 2, so
        // there is always something left to resume.
        ASSERT_FALSE(partial.found);
    }
    EngineState state = loadSnapshot(snap);
    EXPECT_EQ(state.generationsDone, 2);
    auto engine = sc.engine(baseConfig());
    RepairResult resumed = engine.resume(state);
    ASSERT_TRUE(full.found);
    expectSameResult(full, resumed);
    std::remove(snap.c_str());
}

TEST(Snapshot, ResumeRejectsDifferentDesign)
{
    MiniScenario sc;
    std::string snap = tmpPath("mismatch.snap");
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.snapshotPath = snap;
    auto engine = sc.engine(cfg);
    engine.run();
    EngineState state = loadSnapshot(snap);

    // Same scenario, different faulty source: the golden design.
    std::shared_ptr<const SourceFile> other = parse(kGoldenToggle);
    RepairEngine wrong(other, "tb", "dut", sc.probe, sc.oracle, cfg);
    EXPECT_THROW(wrong.resume(state), std::runtime_error);
    std::remove(snap.c_str());
}

TEST(Snapshot, ResumeRejectsDifferentSeed)
{
    MiniScenario sc;
    std::string snap = tmpPath("seedmismatch.snap");
    EngineConfig cfg = baseConfig();
    cfg.maxGenerations = 1;
    cfg.snapshotPath = snap;
    auto engine = sc.engine(cfg);
    engine.run();
    EngineState state = loadSnapshot(snap);

    // The RNG stream and population belong to seed 7: continuing them
    // as seed 8 would be neither run, so resume refuses, naming both.
    EngineConfig other = baseConfig();
    other.seed = 8;
    auto wrong = sc.engine(other);
    try {
        wrong.resume(state);
        FAIL() << "expected a seed-mismatch rejection";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("seed 7"), std::string::npos) << what;
        EXPECT_NE(what.find("seed 8"), std::string::npos) << what;
    }
    std::remove(snap.c_str());
}

// ------------------------------------------------------------------
// The acceptance criterion, literally: SIGKILL the repair process
// mid-run, resume from the latest snapshot, and the final repair
// (patch and fitness) matches the uninterrupted run with the same
// seed.
// ------------------------------------------------------------------

TEST(Snapshot, KilledMidRunResumesToSameRepair)
{
    MiniScenario sc;
    std::string snap = tmpPath("killed.snap");
    std::remove(snap.c_str());

    EngineConfig cfg = baseConfig();
    cfg.numThreads = 2;  // exercise the pool across the kill boundary

    // Uninterrupted reference run (same seed).
    RepairResult full;
    {
        auto engine = sc.engine(cfg);
        full = engine.run();
    }

    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: repair with checkpointing, die hard inside the
        // generation-2 progress callback. The snapshot for generation
        // 2 is written before the callback runs, so it is durable.
        EngineConfig child_cfg = cfg;
        child_cfg.snapshotPath = snap;
        child_cfg.onGeneration = [](const GenerationStats &gs) {
            if (gs.generation == 2)
                raise(SIGKILL);
        };
        auto engine = sc.engine(child_cfg);
        engine.run();
        _exit(0);  // unreachable: the repair lands after the kill point
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    EngineState state = loadSnapshot(snap);
    EXPECT_EQ(state.generationsDone, 2);
    auto engine = sc.engine(cfg);
    RepairResult resumed = engine.resume(state);

    // Same final repair: same patch, same fitness — and the rest of
    // the result is bit-identical too.
    ASSERT_TRUE(full.found);
    EXPECT_TRUE(resumed.found);
    expectSameResult(full, resumed);
    std::remove(snap.c_str());
}

} // namespace
