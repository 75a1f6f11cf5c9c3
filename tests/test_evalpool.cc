/**
 * @file
 * Tests for the parallel candidate-evaluation substrate: the EvalPool
 * thread pool, the patch-keyed LRU fitness cache, and — the core
 * contract — that a repair trial is bit-identical for a given seed at
 * any thread count (determinism regression harness).
 */

#include <atomic>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evalpool.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::core;
using namespace cirfix::verilog;
using sim::ProbeConfig;
using sim::TraceRecorder;

namespace {

// ------------------------------------------------------------------
// EvalPool
// ------------------------------------------------------------------

TEST(EvalPool, RunsEveryJobExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        EvalPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        constexpr int kJobs = 64;
        std::vector<std::atomic<int>> counts(kJobs);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < kJobs; ++i)
            jobs.push_back([&counts, i] {
                counts[static_cast<size_t>(i)].fetch_add(1);
            });
        pool.run(jobs);
        for (auto &c : counts)
            EXPECT_EQ(c.load(), 1);
    }
}

TEST(EvalPool, ReusableAcrossBatches)
{
    EvalPool pool(4);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 10; ++batch) {
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 16; ++i)
            jobs.push_back([&total] { total.fetch_add(1); });
        pool.run(jobs);
    }
    EXPECT_EQ(total.load(), 160);
}

TEST(EvalPool, EmptyBatchIsNoop)
{
    EvalPool pool(4);
    pool.run({});
}

TEST(EvalPool, RethrowsLowestIndexedException)
{
    for (int threads : {1, 4}) {
        EvalPool pool(threads);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 8; ++i)
            jobs.push_back([i] {
                if (i == 3 || i == 6)
                    throw std::runtime_error("job " +
                                             std::to_string(i));
            });
        try {
            pool.run(jobs);
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
        // The pool survives a throwing batch.
        std::atomic<int> ran{0};
        pool.run({[&ran] { ran.fetch_add(1); }});
        EXPECT_EQ(ran.load(), 1);
    }
}

// ------------------------------------------------------------------
// FitnessCache
// ------------------------------------------------------------------

FitnessCache::Entry
entryWithFitness(double f)
{
    FitnessCache::Entry e;
    e.valid = true;
    e.fit.fitness = f;
    return e;
}

TEST(FitnessCache, HitMissAccounting)
{
    FitnessCache cache(8);
    EXPECT_EQ(cache.find("a"), nullptr);
    EXPECT_EQ(cache.stats().misses, 1);
    cache.insert("a", entryWithFitness(0.5));
    const FitnessCache::Entry *hit = cache.find("a");
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->fit.fitness, 0.5);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
    cache.noteDuplicateHit();
    EXPECT_EQ(cache.stats().hits, 2);
}

TEST(FitnessCache, LruEviction)
{
    FitnessCache cache(2);
    cache.insert("a", entryWithFitness(0.1));
    cache.insert("b", entryWithFitness(0.2));
    EXPECT_EQ(cache.size(), 2u);
    // Touch "a" so "b" becomes least recently used.
    EXPECT_NE(cache.find("a"), nullptr);
    cache.insert("c", entryWithFitness(0.3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_EQ(cache.find("b"), nullptr);   // evicted
    EXPECT_NE(cache.find("a"), nullptr);   // kept (recently used)
    EXPECT_NE(cache.find("c"), nullptr);
}

TEST(FitnessCache, ReinsertRefreshesInsteadOfDuplicating)
{
    FitnessCache cache(2);
    cache.insert("a", entryWithFitness(0.1));
    cache.insert("a", entryWithFitness(0.9));
    EXPECT_EQ(cache.size(), 1u);
    const FitnessCache::Entry *e = cache.find("a");
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->fit.fitness, 0.9);
    EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(FitnessCache, ZeroCapacityDisablesCaching)
{
    FitnessCache cache(0);
    cache.insert("a", entryWithFitness(0.1));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.find("a"), nullptr);
}

// ------------------------------------------------------------------
// Engine-level determinism and dedup
// ------------------------------------------------------------------

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

std::string
faultyToggle()
{
    std::string s = kGoldenToggle;
    auto pos = s.find("rst == 1'b1");
    s.replace(pos, 11, "rst != 1'b1");
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

/** seed -> RepairResult must be bit-identical at any thread count. */
TEST(EvalPoolDeterminism, SameSeedSameResultAcrossThreadCounts)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.popSize = 16;
    cfg.maxGenerations = 3;
    cfg.maxSeconds = 60.0;
    cfg.seed = 20260805;

    std::vector<RepairResult> results;
    for (int threads : {1, 2, 8}) {
        EngineConfig c = cfg;
        c.numThreads = threads;
        auto engine = sc.engine(c);
        results.push_back(engine.run());
    }

    const RepairResult &ref = results[0];
    for (size_t i = 1; i < results.size(); ++i) {
        const RepairResult &r = results[i];
        EXPECT_EQ(r.found, ref.found);
        EXPECT_EQ(r.patch.key(), ref.patch.key());
        EXPECT_EQ(r.patch.describe(), ref.patch.describe());
        EXPECT_EQ(r.repairedSource, ref.repairedSource);
        EXPECT_EQ(r.generations, ref.generations);
        EXPECT_EQ(r.fitnessEvals, ref.fitnessEvals);
        EXPECT_EQ(r.invalidMutants, ref.invalidMutants);
        EXPECT_EQ(r.totalMutants, ref.totalMutants);
        EXPECT_EQ(r.fitnessTrajectory, ref.fitnessTrajectory);
        EXPECT_EQ(r.cache.hits, ref.cache.hits);
        EXPECT_EQ(r.cache.misses, ref.cache.misses);
        EXPECT_EQ(r.cache.evictions, ref.cache.evictions);
        EXPECT_DOUBLE_EQ(r.finalFitness.fitness,
                         ref.finalFitness.fitness);
    }
}

/** Re-evaluating an identical patch is a cache hit, not a simulation. */
TEST(EvalPoolDeterminism, IdenticalPatchDedup)
{
    MiniScenario sc;
    EngineConfig cfg;
    auto engine = sc.engine(cfg);

    Variant v1 = engine.evaluate(Patch{});
    long evals_after_first = engine.counters().cache.misses;
    Variant v2 = engine.evaluate(Patch{});
    EXPECT_EQ(engine.counters().cache.misses, evals_after_first);
    EXPECT_EQ(engine.counters().cache.hits, 1);
    EXPECT_EQ(v1.valid, v2.valid);
    EXPECT_DOUBLE_EQ(v1.fit.fitness, v2.fit.fitness);
    EXPECT_EQ(v1.trace.toCsv(), v2.trace.toCsv());
}

/** A standard trial exercises the cache (duplicate children exist). */
TEST(EvalPoolDeterminism, TrialHasNonzeroCacheHits)
{
    MiniScenario sc;
    EngineConfig cfg;
    cfg.popSize = 16;
    cfg.maxGenerations = 3;
    cfg.maxSeconds = 60.0;
    cfg.seed = 11;
    auto engine = sc.engine(cfg);
    RepairResult res = engine.run();
    EXPECT_GT(res.cache.misses, 0);
    EXPECT_GT(res.cache.hits, 0);
}

/** evaluateUncached is safe to call from many threads concurrently. */
TEST(EvalPoolDeterminism, ConcurrentUncachedEvaluationsAgree)
{
    MiniScenario sc;
    EngineConfig cfg;
    auto engine = sc.engine(cfg);

    constexpr int kJobs = 8;
    std::vector<Variant> out(kJobs);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < kJobs; ++i)
        jobs.push_back([&engine, &out, i] {
            out[static_cast<size_t>(i)] =
                engine.evaluateUncached(Patch{});
        });
    EvalPool pool(8);
    pool.run(jobs);

    for (int i = 1; i < kJobs; ++i) {
        EXPECT_EQ(out[size_t(i)].valid, out[0].valid);
        EXPECT_DOUBLE_EQ(out[size_t(i)].fit.fitness,
                         out[0].fit.fitness);
        EXPECT_EQ(out[size_t(i)].trace.toCsv(), out[0].trace.toCsv());
    }
}

} // namespace
