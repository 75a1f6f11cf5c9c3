/**
 * @file
 * Repair-service tests: JSON and framing round-trips (including
 * partial reads and short writes), protocol handshake, admission
 * control, cancel mid-generation, and the daemon lifecycle — ending
 * with the acceptance scenario: three jobs over one daemon, one
 * canceled mid-run, the daemon SIGKILLed mid-search and restarted,
 * every job reaching the right terminal state and the resumed job's
 * result bit-identical to an uninterrupted run.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/jobqueue.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::service;

namespace {

// ---------------------------------------------------------------
// Shared fixtures: the toggle design from the snapshot tests
// ---------------------------------------------------------------

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

/** Double defect: the seed-7 pop-12 repair lands in generation 6, so
 *  kill/resume always has generations left (see test_snapshot.cc). */
std::string
faultyToggle()
{
    std::string s = kGoldenToggle;
    s.replace(s.find("rst == 1'b1"), 11, "rst != 1'b1");
    s.replace(s.find("q <= !q"), 7, "q <= q");
    return s;
}

/** Golden DUT module only (server re-simulates it under the design's
 *  own testbench to record the oracle). */
std::string
goldenDutOnly()
{
    std::string s = kGoldenToggle;
    size_t tb = s.find("module tb;");
    return s.substr(0, tb);
}

/** Record the golden toggle's trace with the testbench running to
 *  @p finish_at time units. */
std::string
goldenTraceCsv(int finish_at)
{
    std::string src = kGoldenToggle;
    if (finish_at != 100)
        src.replace(src.find("#100 $finish"), 12,
                    "#" + std::to_string(finish_at) + " $finish");
    std::shared_ptr<const verilog::SourceFile> golden =
        verilog::parse(src);
    sim::ProbeConfig probe = sim::deriveProbeConfig(*golden, "tb");
    auto design = sim::elaborate(golden, "tb");
    sim::TraceRecorder rec(*design, probe);
    design->run();
    return rec.takeTrace().toCsv();
}

/** A spec the engine can repair (deterministically, in generation 6
 *  with these parameters). */
JobSpec
repairableSpec()
{
    JobSpec spec;
    spec.designSource = faultyToggle();
    spec.tbModule = "tb";
    spec.dutModule = "dut";
    spec.goldenSource = goldenDutOnly();
    spec.params.popSize = 12;
    spec.params.maxGenerations = 6;
    spec.params.maxSeconds = 300.0;
    spec.params.seed = 7;
    return spec;
}

/**
 * A spec no patch can satisfy: the submitted design is the *golden*
 * toggle, but the oracle trace was recorded with a testbench that runs
 * twice as long — candidate simulations always end at t=100, so the
 * oracle rows beyond that never match and fitness never reaches 1.0.
 * The engine therefore always runs its full generation budget, which
 * gives the cancel and kill tests a deterministically long-running job.
 */
JobSpec
unrepairableSpec(int gens)
{
    JobSpec spec;
    spec.designSource = kGoldenToggle;
    spec.tbModule = "tb";
    spec.dutModule = "dut";
    spec.oracleCsv = goldenTraceCsv(200);
    spec.params.popSize = 8;
    spec.params.maxGenerations = gens;
    spec.params.maxSeconds = 300.0;
    spec.params.seed = 11;
    return spec;
}

/** This file builds into both cirfix_tests and cirfix_fault_tests,
 *  and ctest runs the two binaries concurrently — paths must be
 *  per-process or the twins delete each other's state mid-test. */
std::string
uniqueName(const std::string &name)
{
    return name + "." + std::to_string(::getpid());
}

std::string
tmpDir(const std::string &name)
{
    std::string d = ::testing::TempDir() + uniqueName(name);
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

/** Abstract-namespace-free socket path under the (short) temp dir. */
std::string
sockPath(const std::string &name)
{
    return ::testing::TempDir() + uniqueName(name) + ".sock";
}

/** Strip wall-clock fields before comparing results bit-for-bit. */
Json
withoutTimes(Json j)
{
    j.remove("seconds");
    return j;
}

// ---------------------------------------------------------------
// JSON
// ---------------------------------------------------------------

TEST(ServiceJson, RoundTripsValuesExactly)
{
    Json j = Json::object();
    j["int"] = static_cast<long>(1234567890123456789LL);
    j["neg"] = -42;
    j["dbl"] = 0.1;
    j["str"] = "hi \"there\"\nline2";
    j["yes"] = true;
    j["nothing"] = Json();
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(3.5);
    j["arr"] = std::move(arr);

    Json back = Json::parse(j.dump());
    EXPECT_EQ(back, j);
    // Big integers survive without a trip through double.
    EXPECT_EQ(back.num("int"), 1234567890123456789LL);
    // dump() is deterministic: equal values, identical bytes.
    EXPECT_EQ(back.dump(), j.dump());
}

TEST(ServiceJson, RejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("nul"), std::runtime_error);
}

// ---------------------------------------------------------------
// Framing
// ---------------------------------------------------------------

struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        for (int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
    void
    closeEnd(int i)
    {
        ::close(fds[i]);
        fds[i] = -1;
    }
};

TEST(ServiceFraming, RoundTripsFrames)
{
    SocketPair sp;
    writeFrame(sp.fds[0], "hello");
    writeFrame(sp.fds[0], "");  // empty payloads are legal
    std::string got;
    ASSERT_TRUE(readFrame(sp.fds[1], got));
    EXPECT_EQ(got, "hello");
    ASSERT_TRUE(readFrame(sp.fds[1], got));
    EXPECT_EQ(got, "");
}

TEST(ServiceFraming, ReassemblesPartialReads)
{
    // Dribble one frame a byte at a time from a writer thread: the
    // reader's length-prefix and payload loops must reassemble it.
    SocketPair sp;
    std::string payload(1000, 'x');
    payload[0] = 'a';
    payload[999] = 'z';
    uint32_t n = static_cast<uint32_t>(payload.size());
    unsigned char hdr[4] = {
        static_cast<unsigned char>(n >> 24),
        static_cast<unsigned char>(n >> 16),
        static_cast<unsigned char>(n >> 8),
        static_cast<unsigned char>(n)};
    std::thread writer([&] {
        for (unsigned char b : hdr)
            ASSERT_EQ(::write(sp.fds[0], &b, 1), 1);
        for (char c : payload)
            ASSERT_EQ(::write(sp.fds[0], &c, 1), 1);
    });
    std::string got;
    ASSERT_TRUE(readFrame(sp.fds[1], got));
    writer.join();
    EXPECT_EQ(got, payload);
}

TEST(ServiceFraming, SurvivesShortWritesOnLargeFrames)
{
    // An 8 MiB frame cannot fit a socket buffer, so writeFrame's send
    // loop must handle short writes; the reader drains concurrently.
    SocketPair sp;
    std::string big(8u << 20, 'b');
    big[12345] = 'B';
    big[big.size() - 1] = 'E';
    std::thread writer([&] { writeFrame(sp.fds[0], big); });
    std::string got;
    ASSERT_TRUE(readFrame(sp.fds[1], got));
    writer.join();
    EXPECT_EQ(got, big);
}

TEST(ServiceFraming, CleanEofVsTruncatedFrame)
{
    {
        // EOF exactly at a frame boundary: readFrame reports false.
        SocketPair sp;
        writeFrame(sp.fds[0], "last");
        sp.closeEnd(0);
        std::string got;
        ASSERT_TRUE(readFrame(sp.fds[1], got));
        EXPECT_EQ(got, "last");
        EXPECT_FALSE(readFrame(sp.fds[1], got));
    }
    {
        // EOF mid-frame (header promises more bytes): that is an error,
        // not a clean end of stream.
        SocketPair sp;
        unsigned char hdr[4] = {0, 0, 0, 10};
        ASSERT_EQ(::write(sp.fds[0], hdr, 4), 4);
        ASSERT_EQ(::write(sp.fds[0], "abc", 3), 3);
        sp.closeEnd(0);
        std::string got;
        EXPECT_THROW(readFrame(sp.fds[1], got), std::runtime_error);
    }
}

TEST(ServiceFraming, RejectsOversizedFrames)
{
    SocketPair sp;
    unsigned char hdr[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB
    ASSERT_EQ(::write(sp.fds[0], hdr, 4), 4);
    std::string got;
    EXPECT_THROW(readFrame(sp.fds[1], got), std::runtime_error);
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

TEST(ServiceProtocol, JobSpecRoundTrips)
{
    JobSpec spec = repairableSpec();
    spec.priority = 3;
    spec.params.numThreads = 2;
    spec.params.phi = 1.5;
    JobSpec back = jobSpecFromJson(toJson(spec));
    EXPECT_EQ(back.designSource, spec.designSource);
    EXPECT_EQ(back.tbModule, spec.tbModule);
    EXPECT_EQ(back.dutModule, spec.dutModule);
    EXPECT_EQ(back.goldenSource, spec.goldenSource);
    EXPECT_EQ(back.oracleCsv, spec.oracleCsv);
    EXPECT_EQ(back.priority, 3);
    EXPECT_EQ(back.params.popSize, spec.params.popSize);
    EXPECT_EQ(back.params.maxGenerations, spec.params.maxGenerations);
    EXPECT_EQ(back.params.seed, spec.params.seed);
    EXPECT_EQ(back.params.numThreads, 2);
    EXPECT_DOUBLE_EQ(back.params.phi, 1.5);
    // toJson . fromJson . toJson is a fixed point: the wire form is
    // canonical.
    EXPECT_EQ(toJson(back).dump(), toJson(spec).dump());
}

TEST(ServiceProtocol, RejectsInvalidSpecs)
{
    JobSpec spec = repairableSpec();
    Json j = toJson(spec);
    j.remove("design");
    EXPECT_THROW(jobSpecFromJson(j), std::runtime_error);

    Json both = toJson(spec);
    both["oracle_csv"] = "t,q\n";  // golden AND oracle: ambiguous
    EXPECT_THROW(jobSpecFromJson(both), std::runtime_error);

    Json neither = toJson(spec);
    neither.remove("golden");
    EXPECT_THROW(jobSpecFromJson(neither), std::runtime_error);
}

TEST(ServiceProtocol, HelloVersionMismatch)
{
    Json hello = makeHello();
    std::string why;
    EXPECT_TRUE(checkHello(hello, &why)) << why;
    hello["version"] = 99;
    EXPECT_FALSE(checkHello(hello, &why));
    EXPECT_NE(why.find("version"), std::string::npos);
    Json notHello = Json::object();
    notHello["type"] = "submit";
    EXPECT_FALSE(checkHello(notHello, &why));
}

// ---------------------------------------------------------------
// JobQueue: scheduling order + admission control
// ---------------------------------------------------------------

TEST(ServiceQueue, SchedulesPriorityThenFifo)
{
    JobQueue q(AdmissionLimits{});
    JobSpec spec = unrepairableSpec(1);
    spec.priority = 0;
    long a = std::get<long>(q.submit(spec));
    spec.priority = 5;
    long b = std::get<long>(q.submit(spec));
    spec.priority = 5;
    long c = std::get<long>(q.submit(spec));
    spec.priority = -1;
    long d = std::get<long>(q.submit(spec));

    uint64_t lease = 0;
    EXPECT_EQ(q.tryClaim("w", 5.0, &lease)->id, b);  // priority first
    EXPECT_EQ(q.tryClaim("w", 5.0, &lease)->id, c);  // FIFO in a level
    EXPECT_EQ(q.tryClaim("w", 5.0, &lease)->id, a);
    EXPECT_EQ(q.tryClaim("w", 5.0, &lease)->id, d);
}

TEST(ServiceQueue, RejectsOverloadWithStructuredReason)
{
    AdmissionLimits limits;
    limits.queueDepth = 2;
    limits.maxEvalBudget = 1000;
    limits.maxBudgetSeconds = 60.0;
    JobQueue q(limits);

    JobSpec spec = unrepairableSpec(4);  // 8 * 4 = 32 evals: fine
    spec.params.maxSeconds = 30.0;
    EXPECT_TRUE(std::holds_alternative<long>(q.submit(spec)));
    EXPECT_TRUE(std::holds_alternative<long>(q.submit(spec)));

    // Third submission: the queue is at depth; rejected, not dropped.
    auto full = q.submit(spec);
    ASSERT_TRUE(std::holds_alternative<Rejection>(full));
    EXPECT_EQ(std::get<Rejection>(full).code, errc::kQueueFull);
    EXPECT_FALSE(std::get<Rejection>(full).message.empty());
    EXPECT_EQ(q.queuedCount(), 2u);

    // Oversized eval budget and oversized wall clock: budget_too_large.
    JobSpec huge = spec;
    huge.params.popSize = 100;
    huge.params.maxGenerations = 100;  // 10000 > 1000
    auto rej = q.submit(huge);
    ASSERT_TRUE(std::holds_alternative<Rejection>(rej));
    EXPECT_EQ(std::get<Rejection>(rej).code, errc::kBudgetTooLarge);

    JobSpec slow = spec;
    slow.params.maxSeconds = 3600.0;  // > 60
    rej = q.submit(slow);
    ASSERT_TRUE(std::holds_alternative<Rejection>(rej));
    EXPECT_EQ(std::get<Rejection>(rej).code, errc::kBudgetTooLarge);

    // Draining one queued job frees a slot.
    uint64_t lease = 0;
    ASSERT_NE(q.tryClaim("w", 5.0, &lease), nullptr);
    EXPECT_TRUE(std::holds_alternative<long>(q.submit(spec)));
}

TEST(ServiceQueue, CancelQueuedIsImmediatelyTerminal)
{
    JobQueue q(AdmissionLimits{});
    long id = std::get<long>(q.submit(unrepairableSpec(1)));
    std::string why;
    EXPECT_TRUE(q.cancel(id, &why));
    EXPECT_EQ(q.find(id)->state, JobState::Canceled);
    // A second cancel and a cancel of an unknown id both fail loudly.
    EXPECT_FALSE(q.cancel(id, &why));
    EXPECT_NE(why.find("already"), std::string::npos);
    EXPECT_FALSE(q.cancel(777, &why));
}

TEST(ServiceQueue, EventStreamDeliversHistoryThenTerminates)
{
    JobQueue q(AdmissionLimits{});
    long id = std::get<long>(q.submit(unrepairableSpec(1)));
    std::string why;
    ASSERT_TRUE(q.cancel(id, &why));

    // Subscriber attaching after the fact still sees the full ordered
    // history: queued, then canceled — then a clean end.
    Json ev;
    ASSERT_TRUE(q.waitEvent(id, 0, &ev));
    EXPECT_EQ(ev.str("state"), "queued");
    ASSERT_TRUE(q.waitEvent(id, 1, &ev));
    EXPECT_EQ(ev.str("state"), "canceled");
    EXPECT_FALSE(q.waitEvent(id, 2, &ev));
}

// ---------------------------------------------------------------
// Server: handshake + admission over a real socket
// ---------------------------------------------------------------

TEST(ServiceServer, RejectsVersionMismatchOnHandshake)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-hs");
    cfg.stateDir = tmpDir("svc-hs-state");
    cfg.workers = 0;
    Server server(cfg);
    server.start();

    // A Client would send the right version; speak raw instead.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.listenAddress.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    Json hello = makeHello();
    hello["version"] = 99;
    writeFrame(fd, hello.dump());
    std::string payload;
    ASSERT_TRUE(readFrame(fd, payload));
    Json reply = Json::parse(payload);
    EXPECT_EQ(reply.str("type"), "error");
    EXPECT_EQ(reply.str("code"), errc::kVersionMismatch);
    // The server closes the connection after the error.
    EXPECT_FALSE(readFrame(fd, payload));
    ::close(fd);
    server.stop();
}

TEST(ServiceServer, AdmissionErrorsTravelTheWire)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-adm");
    cfg.stateDir = tmpDir("svc-adm-state");
    cfg.workers = 0;  // admit-only: nothing ever runs
    cfg.limits.queueDepth = 1;
    Server server(cfg);
    server.start();

    Client client(cfg.listenAddress);
    EXPECT_EQ(client.serverHello().str("server"), kServerName);
    long id = client.submit(unrepairableSpec(2));
    EXPECT_GT(id, 0);

    // Queue full: a structured, typed rejection — not a dropped frame,
    // not a stuck accept loop (the same connection keeps working).
    try {
        client.submit(unrepairableSpec(2));
        FAIL() << "overload submission must be rejected";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), errc::kQueueFull);
        EXPECT_NE(std::string(e.what()).find("queue depth"),
                  std::string::npos);
    }

    // The connection survives the rejection and answers queries.
    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "queued");
    EXPECT_THROW(client.status(999), ServiceError);
    try {
        client.result(id);
        FAIL() << "result of a live job must be not_done";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), errc::kNotDone);
    }

    // Canceling the queued job frees the admission slot.
    client.cancel(id);
    EXPECT_EQ(client.status(id).str("state"), "canceled");
    EXPECT_GT(client.submit(unrepairableSpec(2)), id);
    server.stop();
}

TEST(ServiceServer, MalformedFramesGetBadRequest)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-bad");
    cfg.stateDir = tmpDir("svc-bad-state");
    cfg.workers = 0;
    Server server(cfg);
    server.start();

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.listenAddress.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    writeFrame(fd, makeHello().dump());
    std::string payload;
    ASSERT_TRUE(readFrame(fd, payload));
    ASSERT_EQ(Json::parse(payload).str("type"), "hello");

    // A frame that is not JSON: bad_request, connection stays open.
    writeFrame(fd, "this is not json");
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(Json::parse(payload).str("code"), errc::kBadRequest);

    // Valid JSON with an unknown type: also bad_request.
    Json odd = Json::object();
    odd["type"] = "frobnicate";
    writeFrame(fd, odd.dump());
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(Json::parse(payload).str("code"), errc::kBadRequest);

    // And the connection still answers real requests afterwards.
    Json list = Json::object();
    list["type"] = "list";
    writeFrame(fd, list.dump());
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(Json::parse(payload).str("type"), "list");
    ::close(fd);
    server.stop();
}

// ---------------------------------------------------------------
// Server: cancel mid-generation
// ---------------------------------------------------------------

TEST(ServiceServer, CancelStopsARunningJobMidGeneration)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-cancel");
    cfg.stateDir = tmpDir("svc-cancel-state");
    cfg.workers = 1;
    Server server(cfg);
    server.start();

    Client watcher(cfg.listenAddress);
    long id = watcher.submit(unrepairableSpec(500));
    watcher.subscribe(id);

    // Wait for the first completed generation, then cancel from a
    // second connection: the engine must stop mid-search, hundreds of
    // generations short of its budget.
    Client controller(cfg.listenAddress);
    bool canceled = false;
    std::string final_state;
    Json ev;
    while (watcher.recv(&ev)) {
        if (ev.str("type") == "end_of_stream")
            break;
        if (!canceled && ev.str("event") == "generation" &&
            ev.num("generation") >= 1) {
            controller.cancel(id);
            canceled = true;
        }
        if (ev.str("event") == "state")
            final_state = ev.str("state");
    }
    ASSERT_TRUE(canceled);
    EXPECT_EQ(final_state, "canceled");

    Json reply = controller.result(id);
    EXPECT_EQ(reply.str("state"), "canceled");
    const Json *res = reply.find("result");
    ASSERT_NE(res, nullptr);
    EXPECT_FALSE(res->flag("found"));
    EXPECT_TRUE(res->flag("stopped"));
    // Stopped well short of the 500-generation budget.
    EXPECT_LT(res->num("generations"), 500);
    server.stop();
}

// ---------------------------------------------------------------
// The acceptance scenario: concurrent jobs, cancel, SIGKILL, resume
// ---------------------------------------------------------------

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CIRFIX_UNDER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CIRFIX_UNDER_TSAN 1
#endif

TEST(ServiceServer, EndToEndKillResumeMatchesUninterruptedRun)
{
#ifdef CIRFIX_UNDER_TSAN
    GTEST_SKIP() << "fork+threads is unsupported under tsan";
#endif
    std::string socket = sockPath("svc-e2e");
    std::string state = tmpDir("svc-e2e-state");

    auto spawnDaemon = [&]() -> pid_t {
        pid_t pid = fork();
        if (pid == 0) {
            // Child: run the daemon until killed. No gtest teardown.
            ServerConfig cfg;
            cfg.listenAddress = socket;
            cfg.stateDir = state;
            cfg.workers = 1;
            try {
                Server server(cfg);
                server.start();
                server.wait();
            } catch (...) {
            }
            _exit(0);
        }
        return pid;
    };

    auto connectWithRetry = [&]() -> std::unique_ptr<Client> {
        for (int i = 0; i < 200; ++i) {
            try {
                return std::make_unique<Client>(socket);
            } catch (const std::exception &) {
                ::usleep(20 * 1000);
            }
        }
        throw std::runtime_error("daemon never came up on " + socket);
    };

    pid_t daemon = spawnDaemon();
    ASSERT_GT(daemon, 0);

    // Three jobs in flight at once, in one daemon:
    //   cancel_me — unrepairable, runs first (highest priority), gets
    //               canceled mid-run;
    //   repair_me — the deterministic 6-generation repair; the daemon
    //               is SIGKILLed while it runs, and it must resume;
    //   follow_up — queued behind both; must survive the kill and run
    //               to completion after the restart.
    auto client = connectWithRetry();
    JobSpec cancel_spec = unrepairableSpec(500);
    cancel_spec.priority = 10;
    long cancel_me = client->submit(cancel_spec);

    JobSpec repair_spec = repairableSpec();
    repair_spec.priority = 5;
    long repair_me = client->submit(repair_spec);

    JobSpec follow_spec = unrepairableSpec(2);
    follow_spec.priority = 0;
    long follow_up = client->submit(follow_spec);

    {
        Json jobs = client->list();
        EXPECT_EQ(jobs.size(), 3u);
    }

    // Phase 1: cancel the running job mid-generation.
    {
        Client watcher(socket);
        watcher.subscribe(cancel_me);
        bool canceled = false;
        Json ev;
        while (watcher.recv(&ev)) {
            if (ev.str("type") == "end_of_stream")
                break;
            if (!canceled && ev.str("event") == "generation") {
                client->cancel(cancel_me);
                canceled = true;
            }
        }
        ASSERT_TRUE(canceled);
        EXPECT_EQ(client->status(cancel_me).str("state"), "canceled");
    }

    // Phase 2: kill the daemon once the repair job has checkpointed at
    // least two generations (the snapshot is durable before the
    // generation event is published).
    {
        Client watcher(socket);
        watcher.subscribe(repair_me);
        Json ev;
        bool killed = false;
        while (!killed && watcher.recv(&ev)) {
            if (ev.str("event") == "generation" &&
                ev.num("generation") >= 2) {
                ASSERT_EQ(::kill(daemon, SIGKILL), 0);
                killed = true;
            }
            if (ev.str("type") == "end_of_stream")
                break;
        }
        ASSERT_TRUE(killed) << "job finished before it could be killed";
        int status = 0;
        ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
        ASSERT_TRUE(WIFSIGNALED(status));
    }
    client.reset();  // its socket died with the daemon

    // Phase 3: restart on the same state dir (in-process this time).
    // Recovery must re-queue the killed running job and the untouched
    // queued job, and keep the canceled one terminal.
    ServerConfig cfg;
    cfg.listenAddress = socket;
    cfg.stateDir = state;
    cfg.workers = 1;
    Server server(cfg);
    server.start();

    Client after(socket);
    EXPECT_EQ(after.status(cancel_me).str("state"), "canceled");

    // Drain the resumed repair job to its terminal state.
    {
        Client watcher(socket);
        watcher.subscribe(repair_me);
        Json ev;
        while (watcher.recv(&ev)) {
            if (ev.str("type") == "end_of_stream")
                break;
        }
    }
    Json repaired = after.result(repair_me);
    EXPECT_EQ(repaired.str("state"), "done");

    // Drain the follow-up job too: queued work survives a SIGKILL.
    {
        Client watcher(socket);
        watcher.subscribe(follow_up);
        Json ev;
        while (watcher.recv(&ev)) {
            if (ev.str("type") == "end_of_stream")
                break;
        }
    }
    Json followed = after.result(follow_up);
    EXPECT_EQ(followed.str("state"), "done");
    EXPECT_FALSE(followed.find("result")->flag("found"));

    server.stop();

    // Phase 4: the resumed run's result is bit-identical to an
    // uninterrupted run of the same spec (wall-clock excluded) — the
    // same session code path the daemon uses, no snapshots involved.
    SessionOutcome reference =
        runRepairJob(repair_spec, "", nullptr, nullptr);
    ASSERT_EQ(reference.state, JobState::Done);
    EXPECT_TRUE(reference.result.flag("found"));
    EXPECT_EQ(withoutTimes(*repaired.find("result")).dump(),
              withoutTimes(reference.result).dump());
}

// ---------------------------------------------------------------
// A client's golden is recorded under the job's memory budget
// ---------------------------------------------------------------

TEST(ServiceSession, GoldenOverTheMemoryBudgetFailsTheJob)
{
    // ~4M 8-bit words: about 140 MB charged against the default
    // 64 MiB budget, refused before a word is allocated.
    JobSpec spec = repairableSpec();
    spec.goldenSource.replace(spec.goldenSource.find("reg q;"), 6,
                              "reg q;\n    reg [7:0] big [0:4194303];");
    ASSERT_EQ(spec.params.evalMemoryBudget, 64ull << 20);
    SessionOutcome out = runRepairJob(spec, "", nullptr, nullptr);
    EXPECT_EQ(out.state, JobState::Failed);
    EXPECT_NE(out.error.find("golden"), std::string::npos) << out.error;
    EXPECT_NE(out.error.find("oom"), std::string::npos) << out.error;
    EXPECT_NE(out.error.find("memory budget exhausted"),
              std::string::npos)
        << out.error;
}

// ---------------------------------------------------------------
// Concurrency: two workers really run two jobs at once
// ---------------------------------------------------------------

TEST(ServiceServer, TwoWorkersDrainTheQueue)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-two");
    cfg.stateDir = tmpDir("svc-two-state");
    cfg.workers = 2;
    Server server(cfg);
    server.start();

    Client client(cfg.listenAddress);
    long a = client.submit(unrepairableSpec(2));
    long b = client.submit(unrepairableSpec(2));
    for (long id : {a, b}) {
        Client watcher(cfg.listenAddress);
        watcher.subscribe(id);
        Json ev;
        while (watcher.recv(&ev))
            if (ev.str("type") == "end_of_stream")
                break;
        EXPECT_EQ(client.status(id).str("state"), "done");
    }
    server.stop();
}

TEST(ServiceServer, StatusCarriesLeaseStatsSchema)
{
    // `cirfix status --json` consumers key on this schema: every
    // status reply carries daemon-wide lease totals, all five
    // members present.
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-leasestats");
    cfg.stateDir = tmpDir("svc-leasestats-state");
    cfg.workers = 1;
    Server server(cfg);
    server.start();

    Client client(cfg.listenAddress);
    long id = client.submit(unrepairableSpec(1));
    {
        Client watcher(cfg.listenAddress);
        watcher.subscribe(id);
        Json ev;
        while (watcher.recv(&ev))
            if (ev.str("type") == "end_of_stream")
                break;
    }
    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "done");
    const Json *ls = summary.find("lease_stats");
    ASSERT_NE(ls, nullptr) << summary.dump();
    for (const char *member :
         {"assignments", "renewals", "expirations", "requeues",
          "stale_rejections"}) {
        ASSERT_TRUE(ls->has(member)) << member;
        EXPECT_GE(ls->num(member), 0) << member;
    }
    // Local workers are fleet workers: the one job took one lease.
    EXPECT_EQ(ls->num("assignments"), 1);
    server.stop();
}

// ---------------------------------------------------------------
// Local workers are fleet workers: leases, durable status, resume
// ---------------------------------------------------------------

/** Block until job @p id's event stream ends (it went terminal). */
void
drainJob(const std::string &address, long id)
{
    Client watcher(address);
    watcher.subscribe(id);
    Json ev;
    while (watcher.recv(&ev))
        if (ev.str("type") == "end_of_stream")
            break;
}

TEST(ServiceServer, LocalWorkersRunJobsUnderLeases)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-leased");
    cfg.stateDir = tmpDir("svc-leased-state");
    cfg.workers = 2;
    Server server(cfg);
    server.start();

    std::vector<JobSpec> specs;
    std::vector<long> ids;
    Client client(cfg.listenAddress);
    for (int k = 0; k < 4; ++k) {
        JobSpec spec = unrepairableSpec(2 + k % 2);
        spec.params.seed = 21 + static_cast<uint64_t>(k);
        specs.push_back(spec);
        ids.push_back(client.submit(spec));
    }
    for (size_t k = 0; k < ids.size(); ++k) {
        SCOPED_TRACE("job " + std::to_string(ids[k]));
        drainJob(cfg.listenAddress, ids[k]);
        Json summary = client.status(ids[k]);
        EXPECT_EQ(summary.str("state"), "done");
        EXPECT_EQ(summary.str("worker").rfind("local-", 0), 0u)
            << summary.dump();
        EXPECT_EQ(summary.num("attempts"), 1);
        SessionOutcome reference =
            runRepairJob(specs[k], "", nullptr, nullptr);
        ASSERT_EQ(reference.state, JobState::Done);
        EXPECT_EQ(withoutTimes(*client.result(ids[k]).find("result"))
                      .dump(),
                  withoutTimes(reference.result).dump());
    }
    LeaseStats stats = server.queue().leaseStats();
    EXPECT_EQ(stats.assignments, 4u);
    EXPECT_EQ(stats.staleRejections, 0u);
    EXPECT_EQ(server.workerCount(), 0);  // local workers are not remote
    server.stop();
}

TEST(ServiceServer, RestartKeepsAFinishedJobsStatus)
{
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-final-status");
    cfg.stateDir = tmpDir("svc-final-status-state");
    cfg.workers = 1;
    long id = 0;
    Json before;
    {
        Server server(cfg);
        server.start();
        Client client(cfg.listenAddress);
        id = client.submit(unrepairableSpec(6));
        drainJob(cfg.listenAddress, id);
        before = client.status(id);
        server.stop();
    }
    ASSERT_EQ(before.str("state"), "done");
    ASSERT_EQ(before.num("generation"), 6);
    ASSERT_GT(before.num("fitness_evals"), 0);

    // Rewrite the result file as a daemon with early abort wrote it:
    // the retired early_aborts, rows_scored and rows_skipped counters
    // and an early-abort outcome count, which a restored job ignores.
    const std::string rf =
        cfg.stateDir + "/job-" + std::to_string(id) + ".result.json";
    Json old = Json::parse(core::readFile(rf));
    for (const char *part : {"result", "progress"}) {
        Json &c = old[part];
        ASSERT_TRUE(c.find("outcomes")) << part;
        c["early_aborts"] = 3;
        c["rows_scored"] = 575;
        c["rows_skipped"] = 12;
        c["outcomes"]["early-abort"] = 3;
    }
    core::writeFileAtomic(rf, old.dump());

    cfg.workers = 0;
    Server server(cfg);
    server.start();
    Json after = Client(cfg.listenAddress).status(id);
    // `cirfix result` still prints the restored job: no repair (exit
    // 2), its probe count, and nothing of the retired counters.
    std::string printed;
    int status = -1;
    {
        std::string cmd = std::string(CIRFIX_CLI_BIN) + " result --socket " +
                          cfg.listenAddress + " --id " +
                          std::to_string(id) + " 2>&1";
        FILE *p = ::popen(cmd.c_str(), "r");
        ASSERT_NE(p, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
            printed.append(buf, n);
        status = ::pclose(p);
    }
    server.stop();
    ASSERT_TRUE(WIFEXITED(status)) << printed;
    EXPECT_EQ(WEXITSTATUS(status), 2) << printed;
    EXPECT_NE(printed.find(std::to_string(before.num("fitness_evals")) +
                           " fitness probes, 6 generations"),
              std::string::npos)
        << printed;
    EXPECT_NE(printed.find("outcomes: ok="), std::string::npos) << printed;
    EXPECT_EQ(printed.find("early"), std::string::npos) << printed;
    // lease_stats are daemon-wide totals since start(); the job's own
    // summary must come back field for field.
    before.remove("lease_stats");
    after.remove("lease_stats");
    EXPECT_EQ(after.dump(), before.dump());
}

TEST(ServiceServer, IslandJobResumesAfterRestart)
{
    // A 2-island job runs in process on one local worker, which
    // checkpoints it under <state-dir>/job-<id>.snap.d/. A daemon
    // stopped mid-run and restarted on the same state dir resumes the
    // islands from there and reproduces the uninterrupted fingerprint.
    JobSpec spec = unrepairableSpec(60);
    spec.params.islands = 2;
    spec.params.migrationInterval = 2;
    spec.params.migrantsPerIsland = 2;
    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    ASSERT_EQ(reference.state, JobState::Done);
    const Json *refIslands = reference.result.find("islands");
    ASSERT_NE(refIslands, nullptr);

    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-island-resume");
    cfg.stateDir = tmpDir("svc-island-resume-state");
    cfg.workers = 1;
    long id = 0;
    {
        Server server(cfg);
        server.start();
        Client client(cfg.listenAddress);
        id = client.submit(spec);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (client.status(id).num("generation", 0) < 3 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        server.stop();
        // Shutdown is not a cancel: the job went back to the queue.
        ASSERT_EQ(server.queue().summaryFor(id).str("state"), "queued");
    }
    const std::string checkpointDir =
        cfg.stateDir + "/job-" + std::to_string(id) + ".snap.d";
    ASSERT_TRUE(std::filesystem::is_directory(checkpointDir));

    Server server(cfg);
    server.start();
    Client watcher(cfg.listenAddress);
    watcher.subscribe(id);
    int firstGeneration = -1;
    Json ev;
    while (watcher.recv(&ev) && ev.str("type") != "end_of_stream")
        if (firstGeneration < 0 && ev.str("event") == "generation")
            firstGeneration = static_cast<int>(ev.num("generation"));
    // Resumed, not restarted: the first generation after the restart
    // continues from a checkpoint.
    EXPECT_GT(firstGeneration, 1);
    Json reply = Client(cfg.listenAddress).result(id);
    server.stop();
    EXPECT_EQ(reply.str("state"), "done");
    // The finished job's checkpoint dir went with its commit.
    EXPECT_FALSE(std::filesystem::exists(checkpointDir));
    const Json *islands = reply.find("result")->find("islands");
    ASSERT_NE(islands, nullptr);
    EXPECT_EQ(islands->str("fingerprint"), refIslands->str("fingerprint"));
}

// ---------------------------------------------------------------
// Client deadlines and dead-peer writes (the --timeout / SIGPIPE
// contract the CLI builds on)
// ---------------------------------------------------------------

TEST(ServiceClient, UnresponsiveServerExpiresAsFrameTimeout)
{
    // A listener that never accepts: connect() succeeds against the
    // backlog, the hello frame sits in the kernel buffer, and the
    // handshake read must expire as a typed FrameTimeout — never a
    // hang (this is exactly what `--timeout S` arms, and the CLI maps
    // the exception to exit code 5).
    std::string path = sockPath("svc-mute");
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
    ::unlink(path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&sa),
                     sizeof(sa)),
              0);
    ASSERT_EQ(::listen(fd, 8), 0);

    ClientOptions opts;
    opts.connectTimeout = 5.0;
    opts.ioTimeout = 0.2;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(Client(path, opts), FrameTimeout);
    double waited = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(waited, 5.0);  // the deadline fired, not a hang
    ::close(fd);
    ::unlink(path.c_str());
}

TEST(ServiceClient, WritesToDeadServerAreTypedNotSigpipe)
{
    // The server goes away under an established connection; pumping
    // frames into the dead socket must raise ConnectionClosed (EPIPE
    // is mapped, MSG_NOSIGNAL suppresses the signal) — a SIGPIPE
    // would kill this whole test binary, which is the regression this
    // test is standing guard against.
    ServerConfig cfg;
    cfg.listenAddress = sockPath("svc-dead");
    cfg.stateDir = tmpDir("svc-dead-state");
    cfg.workers = 1;
    Server server(cfg);
    server.start();
    Client client(cfg.listenAddress);
    server.stop();

    Json msg = Json::object();
    msg["type"] = "list";
    EXPECT_THROW(
        {
            // The kernel buffer may absorb the first few frames; keep
            // writing until the broken pipe surfaces.
            for (int i = 0; i < 4096; ++i)
                client.send(msg);
        },
        ConnectionClosed);
}

} // namespace
