/**
 * @file
 * Fleet tests: transport (Unix + TCP, deadlines, retry/backoff), the
 * network chaos harness (NetFaultInjector), the lease machinery's
 * zero-loss/zero-duplication guarantees, and the coordinator/worker
 * end-to-end scenarios from the acceptance criteria — a worker dying
 * mid-generation fails over to another worker and the finished result
 * is bit-identical to a single-host uninterrupted run; a stale worker
 * trying to commit gets lease_lost; a coordinator restart re-leases
 * live jobs to reconnecting workers; sustained frame-level chaos
 * finishes every job exactly once.
 */

#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "service/client.h"
#include "service/fleet.h"
#include "service/jobqueue.h"
#include "service/netfault.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session.h"
#include "service/transport.h"
#include "sim/elaborate.h"
#include "sim/probe.h"
#include "verilog/parser.h"

using namespace cirfix;
using namespace cirfix::service;

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CIRFIX_UNDER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CIRFIX_UNDER_TSAN 1
#endif

namespace {

// ---------------------------------------------------------------
// Fixtures (the toggle design shared with the service tests)
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

std::string
faultyToggle()
{
    std::string s = kGoldenToggle;
    s.replace(s.find("rst == 1'b1"), 11, "rst != 1'b1");
    s.replace(s.find("q <= !q"), 7, "q <= q");
    return s;
}

std::string
goldenDutOnly()
{
    std::string s = kGoldenToggle;
    return s.substr(0, s.find("module tb;"));
}

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

/** The deterministic seed-7 repair (lands mid-budget, so failover
 *  always happens with generations still to run). */
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

/** Always runs its full generation budget (see test_service.cc). */
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

std::string
sockPath(const std::string &name)
{
    return ::testing::TempDir() + uniqueName(name) + ".sock";
}

Json
withoutTimes(Json j)
{
    j.remove("seconds");
    return j;
}

/** Disarm-on-scope-exit guard: a failed ASSERT inside a chaos test
 *  must not leave the process-global injector armed for later tests. */
struct ArmedPlan
{
    explicit ArmedPlan(const NetFaultPlan &plan)
    {
        NetFaultInjector::instance().arm(plan);
    }
    ~ArmedPlan() { NetFaultInjector::instance().disarm(); }
};

/** A Worker on its own thread, joined (via requestStop) on scope
 *  exit — mirrors what `cirfix worker` does in a process. */
struct WorkerThread
{
    Worker worker;
    std::thread thread;

    explicit WorkerThread(WorkerConfig cfg) : worker(std::move(cfg))
    {
        thread = std::thread([this] {
            try {
                worker.run({});
            } catch (...) {
            }
        });
    }
    ~WorkerThread() { stop(); }
    void
    stop()
    {
        worker.requestStop();
        if (thread.joinable())
            thread.join();
    }
};

WorkerConfig
workerConfig(const std::string &coordinator, const std::string &name)
{
    WorkerConfig cfg;
    cfg.coordinator = coordinator;
    cfg.name = name;
    cfg.workDir = tmpDir("fleet-wd-" + name);
    cfg.claimWaitSeconds = 0.05;  // tests poll fast
    return cfg;
}

/** Poll a predicate with a deadline (fleet state changes are
 *  asynchronous: worker connects, leases expire, jobs finish). */
bool
eventually(const std::function<bool()> &pred, double seconds = 30.0)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

/** Connected Conn pair through a real (Unix) listener, so the fault
 *  injector hooks and deadlines run exactly as in production. */
struct ConnPair
{
    Listener listener;
    std::unique_ptr<Conn> client;
    std::unique_ptr<Conn> server;

    explicit ConnPair(const std::string &name)
    {
        listener = Listener::bind(Address::parse(sockPath(name)));
        client = dial(listener.boundAddress(), 5.0);
        pollfd pfd{listener.fd(), POLLIN, 0};
        EXPECT_GT(::poll(&pfd, 1, 5000), 0);
        server = listener.accept();
        EXPECT_NE(server, nullptr);
    }
};

} // namespace

// ---------------------------------------------------------------
// Transport: addresses, round trips, deadlines, retry
// ---------------------------------------------------------------

TEST(FleetTransport, ParsesAndPrintsAddresses)
{
    Address u = Address::parse("unix:/run/x.sock");
    EXPECT_EQ(u.kind, Address::Kind::Unix);
    EXPECT_EQ(u.path, "/run/x.sock");
    EXPECT_EQ(u.str(), "unix:/run/x.sock");

    // Bare paths stay valid — the PR-3 --socket flags keep working.
    Address bare = Address::parse("/tmp/y.sock");
    EXPECT_EQ(bare.kind, Address::Kind::Unix);
    EXPECT_EQ(bare.path, "/tmp/y.sock");

    Address t = Address::parse("tcp:127.0.0.1:9000");
    EXPECT_EQ(t.kind, Address::Kind::Tcp);
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 9000);
    EXPECT_EQ(t.str(), "tcp:127.0.0.1:9000");

    EXPECT_THROW(Address::parse("tcp:nohost"), TransportError);
    EXPECT_THROW(Address::parse("tcp:h:notaport"), TransportError);
    EXPECT_THROW(Address::parse("tcp::"), TransportError);
    EXPECT_THROW(Address::parse(""), TransportError);
}

TEST(FleetTransport, TcpRoundTripOnEphemeralPort)
{
    Listener l = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
    ASSERT_EQ(l.boundAddress().kind, Address::Kind::Tcp);
    ASSERT_GT(l.boundAddress().port, 0);  // ephemeral port resolved

    std::unique_ptr<Conn> client = dial(l.boundAddress(), 5.0);
    pollfd pfd{l.fd(), POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
    std::unique_ptr<Conn> server = l.accept();
    ASSERT_NE(server, nullptr);

    // Both directions, including a frame big enough to split across
    // TCP segments.
    std::string big(1u << 20, 'm');
    big[0] = 'A';
    big[big.size() - 1] = 'Z';
    std::thread writer([&] { client->writeFrame(big); });
    std::string got;
    ASSERT_TRUE(server->readFrame(&got));
    writer.join();
    EXPECT_EQ(got, big);
    server->writeFrame("pong");
    ASSERT_TRUE(client->readFrame(&got));
    EXPECT_EQ(got, "pong");
}

TEST(FleetTransport, DialToDeadPortFailsTyped)
{
    // Bind, record the port, close: dialing it now must refuse (or,
    // on an overloaded machine, time out) — either way a typed
    // TransportError, never a hang.
    Listener l = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
    Address dead = l.boundAddress();
    l.close();
    EXPECT_THROW(dial(dead, 2.0), TransportError);
}

TEST(FleetTransport, DialRetryCountsAttemptsAndRecovers)
{
    Listener l = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
    Address dead = l.boundAddress();
    l.close();

    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.connectTimeout = 1.0;
    policy.initialDelay = 0.01;
    policy.maxDelay = 0.02;
    int attempts = 0;
    EXPECT_THROW(dialRetry(dead, policy, &attempts), TransportError);
    EXPECT_EQ(attempts, 3);

    // An injected partition on the first dial, then recovery: retry
    // succeeds on attempt 2 against a live listener.
    Listener live = Listener::bind(Address::parse("tcp:127.0.0.1:0"));
    NetFaultPlan plan;
    plan.refuseConnectAt = 1;
    ArmedPlan armed(plan);
    attempts = 0;
    std::unique_ptr<Conn> conn =
        dialRetry(live.boundAddress(), policy, &attempts);
    ASSERT_NE(conn, nullptr);
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(NetFaultInjector::instance().counters().connectsRefused,
              1u);
}

TEST(FleetTransport, IoDeadlineExpiresAsFrameTimeout)
{
    ConnPair cp("fleet-deadline");
    cp.client->setIoDeadline(0.15);
    auto t0 = std::chrono::steady_clock::now();
    std::string got;
    EXPECT_THROW(cp.client->readFrame(&got), FrameTimeout);
    double waited = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_GE(waited, 0.1);
    EXPECT_LT(waited, 5.0);  // the deadline, not a hang
}

// ---------------------------------------------------------------
// Chaos harness: the injector drives transport faults
// ---------------------------------------------------------------

TEST(FleetNetFault, OneShotDropFiresExactlyOnce)
{
    ConnPair cp("nf-drop");
    NetFaultPlan plan;
    plan.dropWriteAt = 2;
    ArmedPlan armed(plan);

    cp.client->writeFrame("one");  // write #1: clean
    EXPECT_THROW(cp.client->writeFrame("two"), ConnectionClosed);
    EXPECT_EQ(NetFaultInjector::instance().counters().writesDropped,
              1u);
    // One-shot: a fresh connection's writes are clean again.
    ConnPair cp2("nf-drop2");
    cp2.client->writeFrame("three");  // write #3: past the trigger
    std::string got;
    ASSERT_TRUE(cp2.server->readFrame(&got));
    EXPECT_EQ(got, "three");
}

TEST(FleetNetFault, EveryModeFiresPeriodically)
{
    NetFaultPlan plan;
    plan.dropReadAt = 2;
    plan.every = true;
    ArmedPlan armed(plan);

    int dropped = 0;
    for (int i = 1; i <= 6; ++i) {
        ConnPair cp("nf-every-" + std::to_string(i));
        cp.client->writeFrame("ping");
        std::string got;
        try {
            cp.server->readFrame(&got);
        } catch (const ConnectionClosed &) {
            ++dropped;
        }
    }
    // Reads 2, 4 and 6 out of 6 hit the modulo schedule.
    EXPECT_EQ(dropped, 3);
    EXPECT_EQ(NetFaultInjector::instance().counters().readsDropped, 3u);
}

TEST(FleetNetFault, PartialWriteLeavesTruncatedFrameOnWire)
{
    ConnPair cp("nf-partial");
    NetFaultPlan plan;
    plan.partialWriteAt = 1;
    ArmedPlan armed(plan);

    // The writer sees its connection die; the reader sees a damaged
    // frame (truncation mid-frame), NOT a clean end of stream — the
    // difference between "peer finished" and "peer vanished".
    EXPECT_THROW(cp.client->writeFrame("a-payload-long-enough-to-cut"),
                 ConnectionClosed);
    std::string got;
    EXPECT_THROW(cp.server->readFrame(&got), ConnectionClosed);
    EXPECT_EQ(NetFaultInjector::instance().counters().writesTruncated,
              1u);
}

TEST(FleetNetFault, StallDelaysButDelivers)
{
    ConnPair cp("nf-stall");
    NetFaultPlan plan;
    plan.stallWriteAt = 1;
    plan.stallSeconds = 0.12;
    ArmedPlan armed(plan);

    auto t0 = std::chrono::steady_clock::now();
    cp.client->writeFrame("slow");
    double waited = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_GE(waited, 0.1);
    std::string got;
    ASSERT_TRUE(cp.server->readFrame(&got));
    EXPECT_EQ(got, "slow");
    EXPECT_EQ(NetFaultInjector::instance().counters().writeStalls, 1u);
}

// ---------------------------------------------------------------
// Lease machinery: the zero-loss / zero-duplication core
// ---------------------------------------------------------------

TEST(FleetLeases, ClaimRenewCompleteLifecycle)
{
    JobQueue q(AdmissionLimits{});
    long id = std::get<long>(q.submit(unrepairableSpec(1)));

    uint64_t lease = 0;
    std::shared_ptr<Job> job = q.tryClaim("w1/1", 5.0, &lease);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->id, id);
    EXPECT_NE(lease, 0u);
    EXPECT_EQ(job->state, JobState::Running);
    EXPECT_EQ(job->worker, "w1/1");
    EXPECT_EQ(job->attempts, 1);
    // Nothing else to claim.
    uint64_t other = 0;
    EXPECT_EQ(q.tryClaim("w2/2", 5.0, &other), nullptr);

    bool cancel = true;
    EXPECT_TRUE(q.renewLease(id, lease, 5.0, &cancel));
    EXPECT_FALSE(cancel);

    std::shared_ptr<Job> committed = q.completeLeased(id, lease);
    ASSERT_NE(committed, nullptr);
    q.setState(*committed, JobState::Done);
    // Replaying the commit is rejected: the duplication barrier.
    EXPECT_EQ(q.completeLeased(id, lease), nullptr);
    EXPECT_FALSE(q.renewLease(id, lease, 5.0, nullptr));

    LeaseStats stats = q.leaseStats();
    EXPECT_EQ(stats.assignments, 1u);
    EXPECT_EQ(stats.renewals, 1u);
    EXPECT_GE(stats.staleRejections, 2u);
}

TEST(FleetLeases, ExpiredLeaseRequeuesAndStaleCommitIsRejected)
{
    JobQueue q(AdmissionLimits{});
    long id = std::get<long>(q.submit(unrepairableSpec(1)));

    uint64_t stale = 0;
    ASSERT_NE(q.tryClaim("dead/1", 0.01, &stale), nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<long> requeued = q.requeueExpired();
    ASSERT_EQ(requeued.size(), 1u);
    EXPECT_EQ(requeued[0], id);
    EXPECT_EQ(q.find(id)->state, JobState::Queued);

    // The presumed-dead worker comes back: every mutation under the
    // old lease bounces.
    EXPECT_FALSE(q.renewLease(id, stale, 5.0, nullptr));
    EXPECT_EQ(q.completeLeased(id, stale), nullptr);

    // A new claimant gets a strictly newer lease; attempts counts
    // the failover.
    uint64_t fresh = 0;
    std::shared_ptr<Job> job = q.tryClaim("live/2", 5.0, &fresh);
    ASSERT_NE(job, nullptr);
    EXPECT_GT(fresh, stale);
    EXPECT_EQ(job->attempts, 2);
    EXPECT_EQ(job->worker, "live/2");

    LeaseStats stats = q.leaseStats();
    EXPECT_EQ(stats.expirations, 1u);
    EXPECT_EQ(stats.requeues, 1u);
    EXPECT_GE(stats.staleRejections, 2u);
}

TEST(FleetLeases, DisconnectRequeuesImmediately)
{
    JobQueue q(AdmissionLimits{});
    long id = std::get<long>(q.submit(unrepairableSpec(1)));
    uint64_t lease = 0;
    ASSERT_NE(q.tryClaim("w1/7", 60.0, &lease), nullptr);

    // The connection died: no need to wait out a 60-second lease.
    std::vector<long> requeued = q.requeueOwnedBy("w1/7");
    ASSERT_EQ(requeued.size(), 1u);
    EXPECT_EQ(requeued[0], id);
    EXPECT_TRUE(q.requeueOwnedBy("w1/7").empty());  // idempotent
    EXPECT_EQ(q.find(id)->state, JobState::Queued);
}

TEST(FleetLeases, CancelDuringLeaseLandsTerminalNotRequeued)
{
    JobQueue q(AdmissionLimits{});
    long id = std::get<long>(q.submit(unrepairableSpec(1)));
    uint64_t lease = 0;
    ASSERT_NE(q.tryClaim("w1/1", 0.01, &lease), nullptr);

    std::string why;
    ASSERT_TRUE(q.cancel(id, &why)) << why;
    bool cancel = false;
    // The lease is still live for a moment: renewal relays the cancel.
    if (q.renewLease(id, lease, 0.01, &cancel)) {
        EXPECT_TRUE(cancel);
    }

    // The worker never commits (it was canceled); expiry must land the
    // job in Canceled, not re-run it on another worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<long> swept = q.requeueExpired();
    ASSERT_EQ(swept.size(), 1u);  // swept, but terminal — not queued
    EXPECT_EQ(q.find(id)->state, JobState::Canceled);
    uint64_t again = 0;
    EXPECT_EQ(q.tryClaim("w2/2", 5.0, &again), nullptr);
}

TEST(FleetLeases, IdempotentSubmitsBeatEveryAdmissionCheck)
{
    AdmissionLimits limits;
    limits.queueDepth = 1;
    JobQueue q(limits);

    long a = std::get<long>(q.submit(unrepairableSpec(1), "req-A"));
    // Same request id: same job, no duplicate — even though the queue
    // is now full (idempotency outranks admission).
    EXPECT_EQ(std::get<long>(q.submit(unrepairableSpec(1), "req-A")), a);
    EXPECT_EQ(q.queuedCount(), 1u);
    // A different id is a real second submission: rejected.
    auto rej = q.submit(unrepairableSpec(1), "req-B");
    ASSERT_TRUE(std::holds_alternative<Rejection>(rej));
    EXPECT_EQ(std::get<Rejection>(rej).code, errc::kQueueFull);
    // The idempotent retry still resolves even while full.
    EXPECT_EQ(std::get<long>(q.submit(unrepairableSpec(1), "req-A")), a);
}

TEST(FleetLeases, FleetStatusGatesAdmission)
{
    AdmissionLimits limits;
    limits.queueDepth = 4;
    JobQueue q(limits);

    q.setFleetStatus(/*noWorkers=*/true, /*degraded=*/false);
    auto rej = q.submit(unrepairableSpec(1));
    ASSERT_TRUE(std::holds_alternative<Rejection>(rej));
    EXPECT_EQ(std::get<Rejection>(rej).code, errc::kNoWorkers);

    // Degraded: effective depth is halved (4 -> 2) and overflow is
    // coded degraded so clients can tell load-shedding from overload.
    q.setFleetStatus(false, /*degraded=*/true);
    EXPECT_TRUE(std::holds_alternative<long>(q.submit(unrepairableSpec(1))));
    EXPECT_TRUE(std::holds_alternative<long>(q.submit(unrepairableSpec(1))));
    rej = q.submit(unrepairableSpec(1));
    ASSERT_TRUE(std::holds_alternative<Rejection>(rej));
    EXPECT_EQ(std::get<Rejection>(rej).code, errc::kDegraded);

    // Healthy again: the full depth is back.
    q.setFleetStatus(false, false);
    EXPECT_TRUE(std::holds_alternative<long>(q.submit(unrepairableSpec(1))));
}

// ---------------------------------------------------------------
// Coordinator / worker end-to-end
// ---------------------------------------------------------------

namespace {

ServerConfig
coordinatorConfig(const std::string &tag, double leaseSeconds = 3.0)
{
    ServerConfig cfg;
    cfg.listenAddress = "unix:" + sockPath(tag);
    cfg.stateDir = tmpDir(tag + "-state");
    cfg.workers = 0;  // coordinator: remote execution only
    cfg.fleet.requireWorkers = true;
    cfg.fleet.leaseSeconds = leaseSeconds;
    return cfg;
}

/** Drain a job's event stream to its terminal event. */
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

} // namespace

TEST(FleetServer, CoordinatorShardsJobToWorkerBitIdentically)
{
    ServerConfig cfg = coordinatorConfig("fleet-e2e");
    Server server(cfg);
    server.start();
    std::string address = server.boundAddress();

    // Admission before any worker connects: structured no_workers.
    {
        Client client(address);
        try {
            client.submit(repairableSpec());
            FAIL() << "submit with no workers must be rejected";
        } catch (const ServiceError &e) {
            EXPECT_EQ(e.code(), errc::kNoWorkers);
        }
    }

    WorkerThread wt(workerConfig(address, "wA"));
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 1; }));

    Client client(address);
    long id = client.submit(repairableSpec());
    ASSERT_GT(id, 0);
    drainJob(address, id);

    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "done");
    // Worker provenance: name + connection serial.
    EXPECT_EQ(summary.str("worker").rfind("wA/", 0), 0u);
    EXPECT_EQ(summary.num("attempts"), 1);

    Json reply = client.result(id);
    const Json *result = reply.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->flag("found"));

    // The remote run is bit-identical to a local in-process run of
    // the same spec (wall-clock excluded).
    SessionOutcome reference =
        runRepairJob(repairableSpec(), "", nullptr, nullptr);
    ASSERT_EQ(reference.state, JobState::Done);
    EXPECT_EQ(withoutTimes(*result).dump(),
              withoutTimes(reference.result).dump());

    // Terminal job: the coordinator-side snapshot is gone.
    EXPECT_FALSE(std::filesystem::exists(cfg.stateDir + "/job-" +
                                         std::to_string(id) + ".snap"));
    server.stop();
}

TEST(FleetServer, LocalAndFleetWatchStreamsAgree)
{
    // A plain job uses no fleet cache, so every counter of every
    // generation is a function of the spec: watching it run on a
    // local worker and on a fleet worker must show the same events.
    JobSpec spec = unrepairableSpec(4);
    auto generationEvents = [&](Server &server) {
        Client client(server.boundAddress());
        long id = client.submit(spec);
        Client watcher(server.boundAddress());
        watcher.subscribe(id);
        std::vector<Json> events;
        Json ev;
        while (watcher.recv(&ev) && ev.str("type") != "end_of_stream")
            if (ev.str("event") == "generation")
                events.push_back(ev);
        return events;
    };

    ServerConfig localCfg;
    localCfg.listenAddress = "unix:" + sockPath("watch-local");
    localCfg.stateDir = tmpDir("watch-local-state");
    localCfg.workers = 1;
    Server local(localCfg);
    local.start();
    std::vector<Json> localEvents = generationEvents(local);
    local.stop();

    Server fleet(coordinatorConfig("watch-fleet"));
    fleet.start();
    WorkerThread wt(workerConfig(fleet.boundAddress(), "wW"));
    ASSERT_TRUE(eventually([&] { return fleet.workerCount() == 1; }));
    std::vector<Json> fleetEvents = generationEvents(fleet);
    fleet.stop();

    ASSERT_EQ(localEvents.size(), 4u);
    ASSERT_EQ(fleetEvents.size(), localEvents.size());
    for (size_t g = 0; g < localEvents.size(); ++g) {
        SCOPED_TRACE("generation " + std::to_string(g + 1));
        EXPECT_EQ(fleetEvents[g].dump(), localEvents[g].dump());
        EXPECT_GT(localEvents[g].find("cache")->num("misses"), 0);
    }
}

TEST(FleetServer, WorkerDeathFailsOverAndResumesBitIdentically)
{
    // Short lease: failover latency is bounded by leaseSeconds plus
    // one sweep tick.
    ServerConfig cfg = coordinatorConfig("fleet-failover", 0.5);
    Server server(cfg);
    server.start();
    std::string address = server.boundAddress();

    auto workerA =
        std::make_unique<WorkerThread>(workerConfig(address, "wA"));
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 1; }));

    // A long deterministic job (40 full generations): worker A cannot
    // finish it before the wind-down lands, so failover is guaranteed
    // to happen mid-run.
    JobSpec spec = unrepairableSpec(40);
    Client client(address);
    long id = client.submit(spec);

    // Let worker A checkpoint at least two generations, then wind it
    // down mid-job without letting it commit: its lease lapses and
    // the job must requeue.
    ASSERT_TRUE(eventually([&] {
        return client.status(id).num("generation", 0) >= 2;
    }));
    workerA->stop();
    workerA.reset();

    // The coordinator still holds worker A's last checkpoint, stamped
    // with its provenance — the failover hand-off artifact.
    std::string snap =
        cfg.stateDir + "/job-" + std::to_string(id) + ".snap";
    ASSERT_TRUE(eventually(
        [&] { return std::filesystem::exists(snap); }, 5.0));
    EXPECT_EQ(core::loadSnapshot(snap).provenance, "wA");

    WorkerThread workerB(workerConfig(address, "wB"));
    drainJob(address, id);

    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "done");
    EXPECT_EQ(summary.str("worker").rfind("wB/", 0), 0u);
    EXPECT_EQ(summary.num("attempts"), 2);

    // The acceptance bar: resumed-on-another-worker result equals the
    // single-host uninterrupted run, bit for bit.
    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    Json reply = client.result(id);
    EXPECT_EQ(withoutTimes(*reply.find("result")).dump(),
              withoutTimes(reference.result).dump());

    LeaseStats stats = server.queue().leaseStats();
    EXPECT_GE(stats.requeues, 1u);
    server.stop();
}

TEST(FleetServer, StaleWorkerCommitGetsLeaseLost)
{
    ServerConfig cfg = coordinatorConfig("fleet-stale", 0.2);
    Server server(cfg);
    server.start();
    Address addr = Address::parse(server.boundAddress());

    // Raw fake workers: drive the wire protocol directly so the dead
    // worker can "keep computing" past its lease.
    auto helloAs = [&](Conn &conn, const std::string &name) {
        conn.writeFrame(makeWorkerHello(name).dump());
        std::string payload;
        ASSERT_TRUE(conn.readFrame(&payload));
        ASSERT_EQ(Json::parse(payload).str("type"), "hello");
    };
    auto claimOne = [&](Conn &conn, long *id, uint64_t *lease) {
        Json req = Json::object();
        req["type"] = "claim";
        req["wait_ms"] = 2000;
        conn.writeFrame(req.dump());
        std::string payload;
        ASSERT_TRUE(conn.readFrame(&payload));
        Json reply = Json::parse(payload);
        ASSERT_EQ(reply.str("type"), "job");
        *id = reply.num("id", -1);
        *lease = static_cast<uint64_t>(reply.num("lease_id", 0));
    };
    auto sendDone = [&](Conn &conn, long id, uint64_t lease) -> Json {
        Json done = Json::object();
        done["type"] = "done";
        done["id"] = id;
        done["lease_id"] = static_cast<long long>(lease);
        done["state"] = "done";
        Json result = Json::object();
        result["found"] = false;
        done["result"] = std::move(result);
        conn.writeFrame(done.dump());
        std::string payload;
        EXPECT_TRUE(conn.readFrame(&payload));
        return Json::parse(payload);
    };

    std::unique_ptr<Conn> dead = dial(addr, 5.0);
    helloAs(*dead, "dead");
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 1; }));

    Client client(server.boundAddress());
    long submitted = client.submit(unrepairableSpec(2));

    long id = -1;
    uint64_t staleLease = 0;
    claimOne(*dead, &id, &staleLease);
    EXPECT_EQ(id, submitted);

    // The worker goes silent past its lease; the sweep requeues.
    ASSERT_TRUE(eventually([&] {
        return client.status(id).str("state") == "queued";
    }));

    // It then tries to commit anyway: the duplication barrier says no.
    Json bounced = sendDone(*dead, id, staleLease);
    EXPECT_EQ(bounced.str("type"), "error");
    EXPECT_EQ(bounced.str("code"), errc::kLeaseLost);

    // A live worker claims and commits under the fresh lease.
    std::unique_ptr<Conn> live = dial(addr, 5.0);
    helloAs(*live, "live");
    uint64_t freshLease = 0;
    long id2 = -1;
    claimOne(*live, &id2, &freshLease);
    EXPECT_EQ(id2, id);
    EXPECT_GT(freshLease, staleLease);
    Json ok = sendDone(*live, id, freshLease);
    EXPECT_EQ(ok.str("type"), "ok");

    // Exactly one job, exactly one completion.
    EXPECT_EQ(client.status(id).str("state"), "done");
    EXPECT_EQ(client.list().size(), 1u);
    EXPECT_GE(server.queue().leaseStats().staleRejections, 1u);
    server.stop();
}

TEST(FleetServer, JobWhoseWorkersKeepDyingEndsFailedAtTheAttemptCap)
{
    ServerConfig cfg = coordinatorConfig("fleet-attempts");
    Server server(cfg);
    server.start();
    Address addr = Address::parse(server.boundAddress());

    // Each attempt: a raw worker claims the job and hangs up at once.
    auto claimAndDrop = [&](long *id) {
        std::unique_ptr<Conn> conn = dial(addr, 5.0);
        conn->writeFrame(makeWorkerHello("doomed").dump());
        std::string payload;
        ASSERT_TRUE(conn->readFrame(&payload));
        ASSERT_EQ(Json::parse(payload).str("type"), "hello");
        ASSERT_TRUE(eventually([&] { return server.workerCount() == 1; }));
        if (*id < 0) {
            Client submitter(server.boundAddress());
            *id = submitter.submit(unrepairableSpec(2));
        }
        Json req = Json::object();
        req["type"] = "claim";
        req["wait_ms"] = 5000;
        conn->writeFrame(req.dump());
        ASSERT_TRUE(conn->readFrame(&payload));
        Json reply = Json::parse(payload);
        ASSERT_EQ(reply.str("type"), "job") << reply.dump();
        EXPECT_EQ(reply.num("id", -1), *id);
        conn.reset();
        ASSERT_TRUE(eventually([&] { return server.workerCount() == 0; }));
    };

    long id = -1;
    for (int attempt = 1; attempt <= kMaxJobAttempts; ++attempt) {
        SCOPED_TRACE("attempt " + std::to_string(attempt));
        claimAndDrop(&id);
        if (HasFatalFailure())
            break;
    }

    // Past the cap the job is not requeued again: it ends failed, the
    // error names the attempt count, and the daemon keeps answering.
    Client client(server.boundAddress());
    ASSERT_TRUE(eventually(
        [&] { return client.status(id).str("state") == "failed"; }));
    Json summary = client.status(id);
    EXPECT_EQ(summary.num("attempts"), kMaxJobAttempts);
    std::string error = summary.str("error");
    EXPECT_NE(error.find(std::to_string(kMaxJobAttempts) + " attempts"),
              std::string::npos)
        << error;
    Json reply = client.result(id);
    EXPECT_EQ(reply.str("state"), "failed");
    EXPECT_EQ(client.list().size(), 1u);

    // The disconnect path persisted the terminal result too.
    std::string resultFile = cfg.stateDir + "/job-" + std::to_string(id) +
                             ".result.json";
    ASSERT_TRUE(std::filesystem::exists(resultFile));
    EXPECT_EQ(Json::parse(core::readFile(resultFile)).str("state"),
              "failed");
    server.stop();
}

TEST(FleetServer, CoordinatorRestartRecoversFleetJobs)
{
    std::string socket = sockPath("fleet-restart");
    std::string state = tmpDir("fleet-restart-state");
    auto makeCfg = [&] {
        ServerConfig cfg;
        cfg.listenAddress = "unix:" + socket;
        cfg.stateDir = state;
        cfg.workers = 0;
        cfg.fleet.requireWorkers = true;
        cfg.fleet.leaseSeconds = 1.0;
        return cfg;
    };

    // The worker outlives the coordinator: its dialRetry loop carries
    // it across the restart.
    auto server = std::make_unique<Server>(makeCfg());
    server->start();
    WorkerThread wt(workerConfig("unix:" + socket, "wR"));
    ASSERT_TRUE(eventually([&] { return server->workerCount() == 1; }));

    JobSpec spec = unrepairableSpec(40);  // long enough to interrupt
    Client client("unix:" + socket);
    long id = client.submit(spec);
    ASSERT_TRUE(eventually([&] {
        return client.status(id).num("generation", 0) >= 2;
    }));

    // Stop the coordinator mid-job. The worker abandons its attempt
    // (heartbeat fails) and keeps re-dialing.
    server->stop();
    server.reset();

    // Restart on the same state dir: the job replays as queued (its
    // lease did not survive), the worker reconnects, claims it, and
    // resumes from the durable coordinator-side checkpoint.
    server = std::make_unique<Server>(makeCfg());
    server->start();
    ASSERT_TRUE(
        eventually([&] { return server->workerCount() == 1; }, 60.0));

    Client after("unix:" + socket);
    ASSERT_TRUE(eventually(
        [&] { return after.status(id).str("state") == "done"; }, 60.0));

    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    Json reply = after.result(id);
    EXPECT_EQ(withoutTimes(*reply.find("result")).dump(),
              withoutTimes(reference.result).dump());
    EXPECT_GE(wt.worker.stats().reconnects, 1u);
    server->stop();
}

TEST(FleetServer, SigkilledWorkerProcessFailsOver)
{
#ifdef CIRFIX_UNDER_TSAN
    GTEST_SKIP() << "fork+threads is unsupported under tsan";
#endif
    std::string socket = sockPath("fleet-kill9");

    // Fork the victim BEFORE any server threads exist (fork with live
    // locks is undefined); its dialRetry loop waits for the
    // coordinator to come up.
    pid_t victim = fork();
    ASSERT_GE(victim, 0);
    if (victim == 0) {
        try {
            WorkerConfig wc;
            wc.coordinator = "unix:" + socket;
            wc.name = "victim";
            wc.workDir =
                ::testing::TempDir() + "fleet-kill9-wd." +
                std::to_string(::getpid());
            Worker worker(wc);
            worker.run({});
        } catch (...) {
        }
        _exit(0);
    }

    ServerConfig cfg;
    cfg.listenAddress = "unix:" + socket;
    cfg.stateDir = tmpDir("fleet-kill9-state");
    cfg.workers = 0;
    cfg.fleet.requireWorkers = true;
    cfg.fleet.leaseSeconds = 0.5;
    Server server(cfg);
    server.start();
    ASSERT_TRUE(
        eventually([&] { return server.workerCount() == 1; }, 30.0));

    JobSpec spec = unrepairableSpec(40);  // long enough to interrupt
    Client client("unix:" + socket);
    long id = client.submit(spec);
    ASSERT_TRUE(eventually([&] {
        return client.status(id).num("generation", 0) >= 2;
    }));

    // kill -9 mid-generation: no goodbye frame, no unwinding — the
    // lease (and the dead TCP peer) is all the coordinator gets.
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status));

    WorkerThread rescue(workerConfig("unix:" + socket, "rescue"));
    drainJob("unix:" + socket, id);

    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "done");
    EXPECT_EQ(summary.str("worker").rfind("rescue/", 0), 0u);
    EXPECT_EQ(summary.num("attempts"), 2);

    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    Json reply = client.result(id);
    EXPECT_EQ(withoutTimes(*reply.find("result")).dump(),
              withoutTimes(reference.result).dump());
    server.stop();
}

TEST(FleetServer, SustainedChaosLosesNothingDuplicatesNothing)
{
    ServerConfig cfg = coordinatorConfig("fleet-chaos", 0.5);
    Server server(cfg);
    server.start();
    std::string address = server.boundAddress();

    std::vector<std::unique_ptr<WorkerThread>> workers;
    for (int i = 0; i < 3; ++i)
        workers.push_back(std::make_unique<WorkerThread>(
            workerConfig(address, "cw" + std::to_string(i))));
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 3; }));

    // Sustained frame-level chaos for the whole run: every 13th write
    // drops the connection, every 23rd read drops it, every 7th write
    // stalls. Clients are hit too — their idempotent request ids are
    // what keeps retried submits single.
    NetFaultPlan plan;
    plan.dropWriteAt = 13;
    plan.dropReadAt = 23;
    plan.stallWriteAt = 7;
    plan.stallSeconds = 0.005;
    plan.every = true;
    ArmedPlan armed(plan);

    std::vector<JobSpec> specs;
    specs.push_back(repairableSpec());
    specs.push_back(unrepairableSpec(10));
    {
        JobSpec alt = unrepairableSpec(6);
        alt.params.seed = 23;
        specs.push_back(alt);
    }

    // Submit under chaos: a dropped reply forces a retry of the SAME
    // request id; the id that comes back must be the original job.
    auto submitWithRetry = [&](const JobSpec &spec) -> long {
        std::string requestId = Client::newRequestId();
        for (int attempt = 0;; ++attempt) {
            try {
                Client c(address);
                return c.submit(spec, requestId);
            } catch (const ServiceError &) {
                throw;  // structured rejection: not a transport fault
            } catch (const std::exception &) {
                if (attempt > 50)
                    throw;
            }
        }
    };
    std::vector<long> ids;
    for (const JobSpec &spec : specs)
        ids.push_back(submitWithRetry(spec));

    auto statusWithRetry = [&](long id) -> Json {
        for (int attempt = 0;; ++attempt) {
            try {
                Client c(address);
                return c.status(id);
            } catch (const std::exception &) {
                if (attempt > 50)
                    throw;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        }
    };

    // Every job reaches done — none lost, none wedged — despite
    // connection drops landing on submits, claims, progress frames
    // and commits alike.
    for (long id : ids)
        ASSERT_TRUE(eventually(
            [&] { return statusWithRetry(id).str("state") == "done"; },
            120.0))
            << "job " << id << " not terminal under chaos";

    NetFaultCounters chaos = NetFaultInjector::instance().counters();
    EXPECT_GT(chaos.total(), 0u) << "the plan never fired: no chaos";
    NetFaultInjector::instance().disarm();

    // Zero lost: exactly the submitted jobs exist (idempotent retries
    // never duplicated a submission).
    {
        Client calm(address);
        EXPECT_EQ(calm.list().size(), specs.size());
        // Zero duplicated: every result matches the uninterrupted
        // single-host reference bit for bit — a job that ran twice to
        // completion would have been caught by the lease barrier (and
        // the coordinator's terminal state machine would refuse the
        // second commit).
        for (size_t i = 0; i < ids.size(); ++i) {
            SessionOutcome reference =
                runRepairJob(specs[i], "", nullptr, nullptr);
            Json reply = calm.result(ids[i]);
            EXPECT_EQ(withoutTimes(*reply.find("result")).dump(),
                      withoutTimes(reference.result).dump())
                << "job " << ids[i];
        }
    }

    for (auto &w : workers)
        w->stop();
    server.stop();
}

TEST(FleetServer, SustainedChaosOverLocalWorkersLosesNothing)
{
    // The daemon's own workers are fleet workers on socketpairs, so
    // the same frame-level chaos lands on their links: a dropped pair
    // abandons the attempt, requeues the job and is replaced. Every
    // job still finishes exactly once, bit-identical to a calm run.
    ServerConfig cfg;
    cfg.listenAddress = "unix:" + sockPath("local-chaos");
    cfg.stateDir = tmpDir("local-chaos-state");
    cfg.workers = 2;
    cfg.fleet.leaseSeconds = 0.5;
    Server server(cfg);
    server.start();
    std::string address = server.boundAddress();

    std::vector<JobSpec> specs{repairableSpec(), unrepairableSpec(10)};
    std::vector<long> ids;
    {
        Client calm(address);
        for (const JobSpec &spec : specs)
            ids.push_back(calm.submit(spec));
    }

    NetFaultPlan plan;
    plan.dropWriteAt = 11;
    plan.dropReadAt = 19;
    plan.every = true;
    ArmedPlan armed(plan);
    // Poll the queue directly: only the workers' links are under fire.
    for (long id : ids)
        ASSERT_TRUE(eventually(
            [&] {
                return server.queue().summaryFor(id).str("state") ==
                       "done";
            },
            120.0))
            << "job " << id << " not done under chaos";
    NetFaultCounters chaos = NetFaultInjector::instance().counters();
    NetFaultInjector::instance().disarm();
    EXPECT_GT(chaos.total(), 0u) << "the plan never fired: no chaos";
    EXPECT_GE(server.queue().leaseStats().requeues, 1u);

    Client calm(address);
    EXPECT_EQ(calm.list().size(), specs.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        SessionOutcome reference =
            runRepairJob(specs[i], "", nullptr, nullptr);
        EXPECT_EQ(withoutTimes(*calm.result(ids[i]).find("result")).dump(),
                  withoutTimes(reference.result).dump())
            << "job " << ids[i];
    }
    server.stop();
}

// ---------------------------------------------------------------
// Island jobs on the fleet (one worker runs all K islands whole)
// ---------------------------------------------------------------

namespace {

/** The repairable two-fault toggle, run as K islands. Migration
 *  reshapes each island's trajectory, so the repair can land later
 *  than the plain run's generation 6 — the budget is generous and the
 *  winner stops everyone early anyway. */
JobSpec
islandSpec(int islands = 4)
{
    JobSpec spec = repairableSpec();
    // Seed 15845 converges at K=4 (island 1 finds the repair at epoch
    // 3); the base seed 7 only repairs in the single-population run.
    spec.params.seed = 15845;
    spec.params.maxGenerations = 12;
    spec.params.islands = islands;
    spec.params.migrationInterval = 2;
    spec.params.migrantsPerIsland = 2;
    return spec;
}

} // namespace

TEST(FleetIsland, FourIslandFleetMatchesInProcessFingerprint)
{
    JobSpec spec = islandSpec(4);

    // In-process reference: the classic daemon path runs the same
    // 4-island job on threads.
    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    ASSERT_EQ(reference.state, JobState::Done);
    const Json *refIslands = reference.result.find("islands");
    ASSERT_NE(refIslands, nullptr);
    std::string refFingerprint = refIslands->str("fingerprint");
    ASSERT_FALSE(refFingerprint.empty());

    ServerConfig cfg = coordinatorConfig("fleet-island-e2e");
    Server server(cfg);
    server.start();
    std::string address = server.boundAddress();
    std::vector<std::unique_ptr<WorkerThread>> workers;
    for (int i = 0; i < 4; ++i)
        workers.push_back(std::make_unique<WorkerThread>(
            workerConfig(address, "iw" + std::to_string(i))));
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 4; }));

    Client client(address);
    long id = client.submit(spec);
    drainJob(address, id);

    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "done");
    // The per-island progress schema rides the status summary.
    EXPECT_EQ(summary.num("island_count"), 4);
    const Json *shards = summary.find("islands");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->size(), 4u);
    for (const Json &s : shards->items()) {
        EXPECT_TRUE(s.has("island"));
        EXPECT_TRUE(s.has("generation"));
        EXPECT_TRUE(s.has("epoch"));
        EXPECT_TRUE(s.has("best_fitness"));
        EXPECT_TRUE(s.has("fitness_evals"));
    }

    Json reply = client.result(id);
    const Json *result = reply.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->flag("found"));
    const Json *islands = result->find("islands");
    ASSERT_NE(islands, nullptr);

    // The acceptance bar: a 4-worker fleet and 4 in-process threads
    // compute the same run — one integer to compare. (Work counters
    // like evals and cache hits legitimately differ with timing; the
    // fingerprint hashes exactly the invariant part.)
    EXPECT_EQ(islands->str("fingerprint"), refFingerprint);
    EXPECT_EQ(islands->num("winner_island"),
              refIslands->num("winner_island"));
    EXPECT_EQ(islands->num("winner_epoch"),
              refIslands->num("winner_epoch"));
    EXPECT_EQ(result->str("repaired_source"),
              reference.result.str("repaired_source"));
    // Hard migration invariants.
    const Json *mig = islands->find("migration");
    ASSERT_NE(mig, nullptr);
    EXPECT_EQ(mig->num("migrant_duplicates"), 0);
    EXPECT_EQ(mig->num("elites_lost"), 0);

    for (auto &w : workers)
        w->stop();
    server.stop();
}

TEST(FleetIsland, RerunOnFleetIsBitIdentical)
{
    // Two fleet runs of the same island job — different timing, same
    // fingerprint. Catches any nondeterminism the in-process
    // comparison above could mask.
    JobSpec spec = islandSpec(3);
    std::vector<std::string> fingerprints;
    for (int round = 0; round < 2; ++round) {
        ServerConfig cfg = coordinatorConfig(
            "fleet-island-rerun" + std::to_string(round));
        Server server(cfg);
        server.start();
        std::string address = server.boundAddress();
        std::vector<std::unique_ptr<WorkerThread>> workers;
        for (int i = 0; i < 3; ++i)
            workers.push_back(std::make_unique<WorkerThread>(
                workerConfig(address, "rw" + std::to_string(i))));
        ASSERT_TRUE(
            eventually([&] { return server.workerCount() == 3; }));
        Client client(address);
        long id = client.submit(spec);
        drainJob(address, id);
        Json reply = client.result(id);
        const Json *islands = reply.find("result")->find("islands");
        ASSERT_NE(islands, nullptr);
        fingerprints.push_back(islands->str("fingerprint"));
        for (auto &w : workers)
            w->stop();
        server.stop();
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(FleetIsland, SigkilledWorkerMidEpochPreservesFingerprint)
{
#ifdef CIRFIX_UNDER_TSAN
    GTEST_SKIP() << "fork+threads is unsupported under tsan";
#endif
    // A longer deterministic island job (the unrepairable spec, 48
    // generations x 3 islands) so the SIGKILL lands mid-run: the kill
    // comes once generation 2 shows, and the job must be re-claimed.
    JobSpec spec = unrepairableSpec(48);
    spec.params.islands = 3;
    spec.params.migrationInterval = 2;
    spec.params.migrantsPerIsland = 2;

    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    ASSERT_EQ(reference.state, JobState::Done);
    std::string refFingerprint =
        reference.result.find("islands")->str("fingerprint");

    std::string socket = sockPath("fleet-island-kill9");

    // Fork the victim BEFORE any server threads exist (fork with live
    // locks is undefined); its dialRetry loop waits for the
    // coordinator to come up.
    pid_t victim = fork();
    ASSERT_GE(victim, 0);
    if (victim == 0) {
        try {
            WorkerConfig wc;
            wc.coordinator = "unix:" + socket;
            wc.name = "ivictim";
            wc.claimWaitSeconds = 0.05;
            wc.workDir = ::testing::TempDir() + "fleet-ikill9-wd." +
                         std::to_string(::getpid());
            Worker worker(wc);
            worker.run({});
        } catch (...) {
        }
        _exit(0);
    }

    ServerConfig cfg;
    cfg.listenAddress = "unix:" + socket;
    cfg.stateDir = tmpDir("fleet-island-kill9-state");
    cfg.workers = 0;
    cfg.fleet.requireWorkers = true;
    cfg.fleet.leaseSeconds = 0.5;
    Server server(cfg);
    server.start();
    std::string address = server.boundAddress();

    // The victim is the only worker when the job is submitted, so it
    // holds the job's one lease.
    ASSERT_TRUE(
        eventually([&] { return server.workerCount() == 1; }, 30.0));
    Client client(address);
    long id = client.submit(spec);

    // Wait until at least one epoch of progress exists, so the kill
    // lands mid-run on the worker holding the job.
    ASSERT_TRUE(eventually([&] {
        Json st = client.status(id);
        return st.str("worker").rfind("ivictim/", 0) == 0 &&
               st.num("generation", 0) >= 2;
    }));

    // kill -9: no goodbye frame — the lease (and a dead TCP peer) is
    // all the coordinator gets. The job requeues and another worker
    // restarts it: a K-island checkpoint never leaves its worker.
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status));

    std::vector<std::unique_ptr<WorkerThread>> crew;
    for (int i = 0; i < 2; ++i)
        crew.push_back(std::make_unique<WorkerThread>(
            workerConfig(address, "icrew" + std::to_string(i))));

    WorkerThread rescue(workerConfig(address, "irescue"));
    drainJob(address, id);

    Json summary = client.status(id);
    EXPECT_EQ(summary.str("state"), "done");
    // The failover happened: the victim's claim, then a survivor's.
    EXPECT_EQ(summary.num("attempts", 0), 2) << summary.dump();

    Json reply = client.result(id);
    const Json *islands = reply.find("result")->find("islands");
    ASSERT_NE(islands, nullptr);
    // The acceptance bar: SIGKILL-one-worker-mid-epoch changes
    // nothing the fingerprint can see — and no elites were lost or
    // duplicated across the failover.
    EXPECT_EQ(islands->str("fingerprint"), refFingerprint);
    const Json *mig = islands->find("migration");
    ASSERT_NE(mig, nullptr);
    EXPECT_EQ(mig->num("elites_lost"), 0);
    EXPECT_EQ(mig->num("migrant_duplicates"), 0);

    for (auto &w : crew)
        w->stop();
    server.stop();
}

TEST(FleetServer, MigrateAndCacheSyncFramesAreBadRequests)
{
    // migrate and cache_sync are not worker frames (a K-island job is
    // claimed whole): a worker that sends them gets bad_request, and
    // they renew no lease.
    ServerConfig cfg = coordinatorConfig("fleet-island-check");
    Server server(cfg);
    server.start();
    std::unique_ptr<Conn> conn =
        dial(Address::parse(server.boundAddress()), 5.0);
    auto exchange = [&](const Json &req) {
        conn->writeFrame(req.dump());
        std::string payload;
        EXPECT_TRUE(conn->readFrame(&payload));
        return Json::parse(payload);
    };
    Json hello = exchange(makeWorkerHello("raw"));
    ASSERT_EQ(hello.str("type"), "hello");
    // A remote worker keeps its own work dir: checkpoints travel.
    EXPECT_FALSE(hello.flag("shared_state_dir"));
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 1; }));

    Client client(server.boundAddress());
    long id = client.submit(islandSpec(2));
    Json claim = Json::object();
    claim["type"] = "claim";
    claim["wait_ms"] = 2000;
    Json job = exchange(claim);
    ASSERT_EQ(job.str("type"), "job");
    EXPECT_EQ(job.num("id"), id);
    EXPECT_FALSE(job.has("island"));  // claimed whole

    uint64_t renewals = server.queue().leaseStats().renewals;
    for (const char *type : {"migrate", "cache_sync"}) {
        Json req = Json::object();
        req["type"] = type;
        req["id"] = id;
        req["lease_id"] = job.num("lease_id", 0);
        req["island"] = 0;
        req["epoch"] = 1;
        Json reply = exchange(req);
        EXPECT_EQ(reply.str("type"), "error") << type;
        EXPECT_EQ(reply.str("code"), errc::kBadRequest) << type;
    }
    EXPECT_EQ(server.queue().leaseStats().renewals, renewals);

    // The lease itself is intact: a progress frame naming an island
    // of the job still lands and renews it.
    Json own = Json::object();
    own["type"] = "progress";
    own["id"] = id;
    own["lease_id"] = job.num("lease_id", 0);
    own["island"] = 1;
    own["generation"] = 1;
    EXPECT_EQ(exchange(own).str("type"), "ok");
    EXPECT_EQ(server.queue().leaseStats().renewals, renewals + 1);
    server.stop();
}

TEST(FleetIsland, CoordinatorWithFewerWorkersThanIslandsFinishes)
{
    // A coordinator with one worker and a 2-island job: the job runs
    // whole on that worker and finishes with the in-process result.
    JobSpec spec = islandSpec(2);
    SessionOutcome reference = runRepairJob(spec, "", nullptr, nullptr);
    ASSERT_EQ(reference.state, JobState::Done);

    ServerConfig cfg = coordinatorConfig("fleet-island-liveness");
    cfg.workers = 1;
    ASSERT_TRUE(cfg.fleet.requireWorkers);
    Server server(cfg);
    server.start();
    Client client(server.boundAddress());
    long id = client.submit(spec);
    ASSERT_TRUE(eventually(
        [&] { return client.status(id).str("state") == "done"; }, 60.0))
        << client.status(id).dump();

    Json reply = client.result(id);
    const Json *islands = reply.find("result")->find("islands");
    ASSERT_NE(islands, nullptr);
    EXPECT_EQ(islands->str("fingerprint"),
              reference.result.find("islands")->str("fingerprint"));
    server.stop();
}

TEST(FleetIsland, ServeStatusListsEveryIsland)
{
    // `cirfix serve` runs a K-island job on a local worker; its status
    // lists each island, and the islands' counters sum to the job's —
    // also once a restarted daemon has recovered the finished job.
    ServerConfig cfg;
    cfg.listenAddress = "unix:" + sockPath("serve-island-status");
    cfg.stateDir = tmpDir("serve-island-status-state");
    cfg.workers = 1;
    auto checkIslands = [](const Json &summary) {
        EXPECT_EQ(summary.str("state"), "done");
        EXPECT_EQ(summary.num("island_count"), 3);
        EXPECT_EQ(summary.num("attempts"), 1);
        const Json *islands = summary.find("islands");
        ASSERT_NE(islands, nullptr);
        ASSERT_EQ(islands->size(), 3u);
        core::SearchCounters sum;
        for (size_t k = 0; k < islands->size(); ++k) {
            const Json &s = islands->items()[k];
            EXPECT_EQ(s.num("island", -1), static_cast<long>(k));
            EXPECT_TRUE(s.has("generation"));
            EXPECT_TRUE(s.has("epoch"));
            EXPECT_TRUE(s.has("best_fitness"));
            sum += countersFromJson(s);
        }
        Json want = Json::object();
        countersToJson(sum, want);
        Json got = Json::object();
        countersToJson(countersFromJson(summary), got);
        EXPECT_EQ(got.dump(), want.dump());
        EXPECT_GT(sum.fitnessEvals, 0);
    };

    long id = 0;
    {
        Server server(cfg);
        server.start();
        Client client(server.boundAddress());
        id = client.submit(islandSpec(3));
        drainJob(server.boundAddress(), id);
        checkIslands(client.status(id));
        server.stop();
    }
    Server restarted(cfg);
    restarted.start();
    checkIslands(Client(restarted.boundAddress()).status(id));
    restarted.stop();
}

TEST(FleetServer, RemoteWorkerRunsWholeIslandJobInClassicMode)
{
    // Without requireWorkers an island job is not sharded: a remote
    // worker claims it whole and runs every island in process, so its
    // progress frames name islands its whole-job lease covers.
    ServerConfig cfg = coordinatorConfig("fleet-classic-islands");
    cfg.fleet.requireWorkers = false;
    Server server(cfg);
    server.start();
    WorkerThread wt(workerConfig(server.boundAddress(), "wC"));
    ASSERT_TRUE(eventually([&] { return server.workerCount() == 1; }));

    Client client(server.boundAddress());
    long id = client.submit(islandSpec(2));
    // A refused frame makes the worker drop the job; its lease then
    // expires and the job goes out again, so a second attempt fails.
    Json summary;
    ASSERT_TRUE(eventually([&] {
        summary = client.status(id);
        return summary.str("state") == "done" ||
               summary.num("attempts") > 1;
    }));
    ASSERT_EQ(summary.str("state"), "done");
    EXPECT_EQ(summary.num("attempts"), 1);

    Client watcher(server.boundAddress());
    watcher.subscribe(id);
    std::map<long, core::SearchCounters> lastOfIsland;
    Json ev;
    while (watcher.recv(&ev) && ev.str("type") != "end_of_stream")
        if (ev.str("event") == "generation")
            lastOfIsland[ev.num("island", -1)] = countersFromJson(ev);
    ASSERT_EQ(lastOfIsland.size(), 2u);
    ASSERT_TRUE(lastOfIsland.count(0) && lastOfIsland.count(1));
    // The job-level counters are the sum of its islands'.
    core::SearchCounters sum = lastOfIsland[0];
    sum += lastOfIsland[1];
    Json want = Json::object();
    countersToJson(sum, want);
    Json got = Json::object();
    countersToJson(countersFromJson(summary), got);
    EXPECT_EQ(got.dump(), want.dump());
    EXPECT_GT(sum.fitnessEvals, 0);
    server.stop();
}
