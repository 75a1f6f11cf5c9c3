/**
 * @file
 * Unit tests for the stratified event scheduler, plus the per-simulation
 * allocation profile of a whole candidate simulation.
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "sim/elaborate.h"
#include "sim/logic.h"
#include "sim/probe.h"
#include "sim/scheduler.h"
#include "verilog/parser.h"

using namespace cirfix::sim;

namespace {

TEST(Scheduler, EmptyQueueIsIdle)
{
    Scheduler s;
    auto res = s.run(1000, 1000);
    EXPECT_EQ(res.status, Scheduler::Status::Idle);
    EXPECT_EQ(res.callbacks, 0u);
}

TEST(Scheduler, ActiveCallbacksRunFifo)
{
    Scheduler s;
    std::vector<int> order;
    s.scheduleActive([&] { order.push_back(1); });
    s.scheduleActive([&] { order.push_back(2); });
    s.scheduleActive([&] { order.push_back(3); });
    s.run(10, 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TimeAdvancesInOrder)
{
    Scheduler s;
    std::vector<SimTime> seen;
    s.scheduleAt(30, [&] { seen.push_back(s.now()); });
    s.scheduleAt(10, [&] { seen.push_back(s.now()); });
    s.scheduleAt(20, [&] { seen.push_back(s.now()); });
    auto res = s.run(100, 100);
    EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, 30}));
    EXPECT_EQ(res.endTime, 30u);
}

TEST(Scheduler, InactiveRunsAfterActiveDrains)
{
    Scheduler s;
    std::vector<int> order;
    s.scheduleInactive([&] { order.push_back(9); });
    s.scheduleActive([&] {
        order.push_back(1);
        s.scheduleActive([&] { order.push_back(2); });
    });
    s.run(10, 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(Scheduler, NbaRunsAfterInactive)
{
    Scheduler s;
    std::vector<int> order;
    s.scheduleNba([&] { order.push_back(3); });
    s.scheduleInactive([&] { order.push_back(2); });
    s.scheduleActive([&] { order.push_back(1); });
    s.run(10, 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NbaWakesBackIntoActiveSameSlot)
{
    Scheduler s;
    std::vector<int> order;
    s.scheduleNba([&] {
        order.push_back(1);
        s.scheduleActive([&] { order.push_back(2); });
    });
    auto res = s.run(10, 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(res.endTime, 0u);
}

TEST(Scheduler, PostponedRunsLast)
{
    Scheduler s;
    std::vector<int> order;
    s.schedulePostponed([&] { order.push_back(9); });
    s.scheduleNba([&] {
        order.push_back(2);
        s.scheduleActive([&] { order.push_back(3); });
    });
    s.scheduleActive([&] { order.push_back(1); });
    s.run(10, 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9}));
}

TEST(Scheduler, NbaAtFutureTime)
{
    Scheduler s;
    std::vector<std::pair<SimTime, int>> seen;
    s.scheduleNbaAt(5, [&] { seen.push_back({s.now(), 1}); });
    s.scheduleAt(5, [&] { seen.push_back({s.now(), 0}); });
    s.run(10, 100);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<SimTime, int>{5, 0}));  // active first
    EXPECT_EQ(seen[1], (std::pair<SimTime, int>{5, 1}));
}

TEST(Scheduler, PastTimeClampsToNow)
{
    Scheduler s;
    bool ran = false;
    s.scheduleAt(50, [&] {
        // Scheduling "in the past" lands in the current slot.
        s.scheduleAt(10, [&] { ran = (s.now() == 50); });
    });
    s.run(100, 100);
    EXPECT_TRUE(ran);
}

TEST(Scheduler, FinishStopsBetweenCallbacks)
{
    Scheduler s;
    int count = 0;
    s.scheduleActive([&] {
        ++count;
        s.requestFinish();
    });
    s.scheduleActive([&] { ++count; });
    auto res = s.run(10, 100);
    EXPECT_EQ(res.status, Scheduler::Status::Finished);
    EXPECT_EQ(count, 1);
}

TEST(Scheduler, MaxTimeBound)
{
    Scheduler s;
    // Self-perpetuating future events.
    std::function<void()> tick = [&] { s.scheduleAt(s.now() + 10, tick); };
    s.scheduleAt(0, tick);
    auto res = s.run(55, 1'000'000);
    EXPECT_EQ(res.status, Scheduler::Status::MaxTime);
    EXPECT_GT(res.endTime, 55u);
}

TEST(Scheduler, CallbackBudgetDetectsRunaway)
{
    Scheduler s;
    std::function<void()> spin = [&] { s.scheduleActive(spin); };
    s.scheduleActive(spin);
    auto res = s.run(10, 500);
    EXPECT_EQ(res.status, Scheduler::Status::Runaway);
    EXPECT_TRUE(s.aborted());
    EXPECT_FALSE(s.abortReason().empty());
}

TEST(Scheduler, NoteAbortStopsRun)
{
    Scheduler s;
    s.scheduleActive([&] { s.noteAbort("deliberate"); });
    s.scheduleAt(5, [] {});
    auto res = s.run(10, 100);
    EXPECT_EQ(res.status, Scheduler::Status::Runaway);
    EXPECT_EQ(s.abortReason(), "deliberate");
}

TEST(Scheduler, SimAbortCarriesMessage)
{
    SimAbort e("budget gone");
    EXPECT_STREQ(e.what(), "budget gone");
}

// ------------------------------------------------------------------
// Concurrency stress: simulating one shared AST from many threads
// ------------------------------------------------------------------

/**
 * Parallel candidate evaluation elaborates and simulates designs on
 * worker threads, and several designs may share one AST (e.g. the
 * unpatched original). The interpreter lazily writes the per-statement
 * suspendCache on that shared tree, so this test drives 8 concurrent
 * simulations of the *same* SourceFile and demands identical traces —
 * it is the regression guard for the atomic suspendCache (run it under
 * `ctest -L tsan` in a -DCIRFIX_TSAN=ON build to prove race-freedom).
 */
TEST(SchedulerStress, ConcurrentSimulationsOfSharedAstAgree)
{
    const char *src = R"(
module dut (clk, rst, count);
    input clk, rst;
    output [3:0] count;
    reg [3:0] count;
    integer i;
    reg [3:0] acc;
    always @(posedge clk) begin
        if (rst) begin
            count <= 4'd0;
        end
        else begin
            acc = 4'd0;
            for (i = 0; i < 3; i = i + 1)
                acc = acc + 4'd1;
            if (count == 4'd9)
                count <= 4'd0;
            else
                count <= count + (acc - 4'd2);
        end
    end
endmodule
module tb;
    reg clk, rst;
    wire [3:0] count;
    dut d (.clk(clk), .rst(rst), .count(count));
    initial begin
        clk = 0;
        rst = 1;
        #12 rst = 0;
        #300 $finish;
    end
    always #5 clk = !clk;
endmodule
)";
    std::shared_ptr<const cirfix::verilog::SourceFile> file =
        cirfix::verilog::parse(src);
    ProbeConfig probe = deriveProbeConfig(*file, "tb");

    // Reference trace from a serial run of a private clone (its
    // suspendCache fills independently of the shared tree's).
    std::string expected;
    {
        auto design = elaborate(*file, "tb");
        TraceRecorder rec(*design, probe);
        design->run();
        expected = rec.takeTrace().toCsv();
    }
    ASSERT_FALSE(expected.empty());

    constexpr int kThreads = 8;
    std::vector<std::string> traces(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Shares `file` (and its lazily-written suspendCache)
            // with every other thread.
            auto design = elaborate(file, "tb");
            TraceRecorder rec(*design, probe);
            design->run();
            traces[static_cast<size_t>(t)] = rec.takeTrace().toCsv();
        });
    for (auto &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(traces[static_cast<size_t>(t)], expected)
            << "thread " << t << " diverged";
}

/**
 * The allocation cost of one candidate simulation, pinned exactly from
 * an earlier build: elaborating, probing and running the counter
 * golden design with its testbench makes no LogicVec or EventFn heap
 * allocation once a warm-up run has done the one-time lazy setup, and
 * the scheduler creates 3 time-slot nodes and recycles the rest. A
 * change that puts the simulation hot path back on the heap (a wider
 * callback capture, a vector that outgrows its inline words) fails
 * here.
 */
TEST(SchedulerAllocs, CounterSimulationStaysOffTheHeap)
{
    const cirfix::core::ProjectSpec &p =
        cirfix::bench::getProject("counter");
    std::shared_ptr<const cirfix::verilog::SourceFile> file =
        cirfix::verilog::parse(p.goldenSource + "\n" + p.testbenchSource);
    ProbeConfig probe = deriveProbeConfig(*file, p.tbModule);
    auto simulate = [&] {
        auto design = elaborate(file, p.tbModule);
        TraceRecorder rec(*design, probe);
        design->run();
        return design->scheduler().allocStats();
    };
    simulate();

    // The heap counters are thread-local, and every simulation here
    // runs on this thread.
    const uint64_t logic0 = logicHeapAllocs();
    const uint64_t event0 = EventFn::heapAllocs();
    for (int i = 0; i < 32; ++i) {
        Scheduler::AllocStats st = simulate();
        EXPECT_EQ(st.slotsAllocated, 3u);
        EXPECT_EQ(st.slotsRecycled, 72u);
        EXPECT_EQ(st.eventsScheduled, 164u);
    }
    EXPECT_EQ(logicHeapAllocs() - logic0, 0u);
    EXPECT_EQ(EventFn::heapAllocs() - event0, 0u);
}

} // namespace
