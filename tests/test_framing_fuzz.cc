/**
 * @file
 * Framing-robustness fuzz tests: the frame layer must turn every kind
 * of wire damage — truncation at any byte, oversized or bit-flipped
 * length prefixes, random garbage, adversarially chunked writes —
 * into a typed FrameError (or a clean parse), never a crash, a hang,
 * or an unbounded allocation. The envelope cases send snapshot
 * envelopes (JSON, a NUL, raw bytes) to a live coordinator: damaged
 * ones are answered bad_request or dropped with the connection, and
 * none writes a snapshot without a live lease. The depth cases send
 * documents and designs nested far past the parsers' bounds: the
 * daemon answers bad_request or fails the job, and keeps serving, and
 * a design just inside the bound goes through the engine's scoped
 * pre-screen on a pool thread without overflowing. The suite also
 * builds into the ASAN runner (cirfix_fault_tests), where
 * a lifetime or overflow bug in the reassembly loops would abort the
 * test.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evalpool.h"
#include "core/snapshot.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/transport.h"
#include "verilog/parser.h"

using namespace cirfix::service;

namespace {

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

/** Deterministic xorshift64* stream (tests must not depend on
 *  random_device — same bytes every run, every platform). */
struct Rng
{
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed ? seed : 1) {}
    uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }
    size_t
    below(size_t n)
    {
        return static_cast<size_t>(next() % n);
    }
};

/** Encode one frame the way writeFrame puts it on the wire. */
std::string
encodeFrame(const std::string &payload)
{
    uint32_t n = static_cast<uint32_t>(payload.size());
    std::string out;
    out.push_back(static_cast<char>(n >> 24));
    out.push_back(static_cast<char>(n >> 16));
    out.push_back(static_cast<char>(n >> 8));
    out.push_back(static_cast<char>(n));
    out += payload;
    return out;
}

/** Feed @p stream to a reader and drain it to the end. @return the
 *  payloads read; a typed FrameError ends the drain (recorded in
 *  @p errorOut). Anything else thrown fails the test. */
std::vector<std::string>
drainStream(const std::string &stream, std::string *errorOut)
{
    SocketPair sp;
    std::thread writer([&] {
        size_t off = 0;
        while (off < stream.size()) {
            ssize_t n = ::write(sp.fds[0], stream.data() + off,
                                stream.size() - off);
            if (n <= 0)
                break;  // reader bailed early; that's fine
            off += static_cast<size_t>(n);
        }
        sp.closeEnd(0);
    });
    std::vector<std::string> got;
    errorOut->clear();
    try {
        std::string payload;
        while (readFrame(sp.fds[1], payload, 5.0))
            got.push_back(payload);
    } catch (const FrameError &e) {
        *errorOut = e.what();
        EXPECT_FALSE(std::string(e.what()).empty());
    }
    // No catch-all: any non-FrameError exception propagates and fails.
    writer.join();
    return got;
}

/** A coordinator with one queued job and no workers of its own; the
 *  test speaks the worker side raw. Paths are per process: ctest runs
 *  this file's two binaries at once. */
struct EnvelopeRig
{
    ServerConfig cfg;
    std::unique_ptr<Server> server;
    long id = 0;

    explicit EnvelopeRig(const std::string &name)
    {
        std::string base = ::testing::TempDir() + name + "." +
                           std::to_string(::getpid());
        cfg.listenAddress = "unix:" + base + ".sock";
        cfg.stateDir = base + "-state";
        std::filesystem::remove_all(cfg.stateDir);
        cfg.workers = 0;
        cfg.fleet.leaseSeconds = 60.0;  // no expiry mid-test
        server = std::make_unique<Server>(cfg);
        server->start();
        JobSpec spec;
        spec.designSource = "module dut; endmodule\nmodule tb; endmodule";
        spec.tbModule = "tb";
        spec.dutModule = "dut";
        spec.oracleCsv = "time\n";
        id = std::get<long>(server->queue().submit(spec));
    }
    ~EnvelopeRig() { server->stop(); }

    std::unique_ptr<Conn>
    connect(const Json &hello)
    {
        std::unique_ptr<Conn> conn =
            dial(Address::parse(server->boundAddress()), 5.0);
        conn->setIoDeadline(10.0);
        conn->writeFrame(hello.dump());
        std::string payload;
        EXPECT_TRUE(conn->readFrame(&payload));
        EXPECT_EQ(Json::parse(payload).str("type"), "hello");
        return conn;
    }

    std::string
    snapshotFile() const
    {
        return cfg.stateDir + "/job-" + std::to_string(id) + ".snap";
    }
};

/** Send one raw payload, return the parsed reply. */
Json
roundTrip(Conn &conn, const std::string &payload)
{
    conn.writeFrame(payload);
    std::string reply;
    EXPECT_TRUE(conn.readFrame(&reply));
    return Json::parse(reply);
}

} // namespace

TEST(FramingFuzz, TruncationAtEveryByteIsTyped)
{
    const std::string payload = "truncate-me-anywhere";
    const std::string frame = encodeFrame(payload);
    for (size_t cut = 0; cut <= frame.size(); ++cut) {
        SocketPair sp;
        if (cut > 0) {
            ASSERT_EQ(::write(sp.fds[0], frame.data(), cut),
                      static_cast<ssize_t>(cut));
        }
        sp.closeEnd(0);
        std::string got;
        if (cut == 0) {
            // EOF at a frame boundary is a clean end of stream.
            EXPECT_FALSE(readFrame(sp.fds[1], got));
        } else if (cut == frame.size()) {
            EXPECT_TRUE(readFrame(sp.fds[1], got));
            EXPECT_EQ(got, payload);
            EXPECT_FALSE(readFrame(sp.fds[1], got));
        } else {
            // EOF mid-header or mid-payload: the peer vanished.
            EXPECT_THROW(readFrame(sp.fds[1], got), ConnectionClosed)
                << "cut at byte " << cut;
        }
    }
}

TEST(FramingFuzz, OversizedPrefixesAreRejectedWithoutAllocation)
{
    // Prefix values beyond kMaxFrameBytes must be rejected from the
    // 4 header bytes alone — the reader never tries to allocate or
    // read the claimed payload (the write side only ever sends 4
    // bytes, so a reader that tried to allocate-and-read would hang
    // or OOM instead of throwing).
    const uint64_t claims[] = {static_cast<uint64_t>(kMaxFrameBytes) + 1,
                               0x7fffffffull, 0xffffffffull};
    for (uint64_t claim : claims) {
        SocketPair sp;
        unsigned char hdr[4] = {
            static_cast<unsigned char>(claim >> 24),
            static_cast<unsigned char>(claim >> 16),
            static_cast<unsigned char>(claim >> 8),
            static_cast<unsigned char>(claim)};
        ASSERT_EQ(::write(sp.fds[0], hdr, 4), 4);
        std::string got;
        try {
            readFrame(sp.fds[1], got, 5.0);
            FAIL() << "oversized prefix " << claim << " accepted";
        } catch (const ConnectionClosed &) {
            FAIL() << "oversized prefix misreported as a disconnect";
        } catch (const FrameError &e) {
            EXPECT_NE(std::string(e.what()).find("frame"),
                      std::string::npos)
                << e.what();
        }
    }
    // The boundary itself is legal: exactly kMaxFrameBytes would be a
    // 64 MiB allocation, so prove the check is > not >= with the
    // writer-side guard instead.
    SocketPair sp;
    std::string too_big(kMaxFrameBytes + 1, 'x');
    EXPECT_THROW(writeFrame(sp.fds[0], too_big), FrameError);
}

TEST(FramingFuzz, HeaderBitFlipsNeverEscapeTypedErrors)
{
    // Flip each of the 32 bits of the first frame's length prefix in a
    // two-frame stream. Depending on the bit, the reader may see an
    // oversized frame, a short frame followed by desynced garbage, or
    // a truncated frame — every outcome must be a parsed payload or a
    // typed FrameError. (Payload corruption is the JSON layer's
    // problem; length corruption is ours.)
    const std::string a(300, 'a');
    const std::string b = "second-frame";
    const std::string stream = encodeFrame(a) + encodeFrame(b);
    for (int bit = 0; bit < 32; ++bit) {
        std::string damaged = stream;
        damaged[static_cast<size_t>(bit / 8)] ^=
            static_cast<char>(1u << (bit % 8));
        std::string err;
        std::vector<std::string> got = drainStream(damaged, &err);
        if (err.empty()) {
            // The flip happened to produce a consistent stream (e.g.
            // shortening frame 1 so its tail parses as more frames);
            // whatever was read must at least fit the bytes sent.
            size_t total = 0;
            for (const std::string &p : got)
                total += 4 + p.size();
            EXPECT_LE(total, damaged.size()) << "bit " << bit;
        }
    }
}

TEST(FramingFuzz, RandomGarbageStreamsNeverEscapeTypedErrors)
{
    Rng rng(0x5eed5eedull);
    for (int round = 0; round < 64; ++round) {
        std::string garbage(1 + rng.below(4096), '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng.next());
        std::string err;
        std::vector<std::string> got = drainStream(garbage, &err);
        size_t total = 0;
        for (const std::string &p : got)
            total += 4 + p.size();
        EXPECT_LE(total, garbage.size()) << "round " << round;
    }
}

TEST(FramingFuzz, AdversarialChunkingReassemblesExactly)
{
    // The same three-frame stream delivered under many different
    // write chunkings (including 1-byte dribbles across header and
    // payload boundaries) must always reassemble to the same three
    // payloads.
    std::vector<std::string> payloads = {
        std::string(1, 'x'), std::string(2000, 'y'), ""};
    payloads[1][0] = 'Y';
    payloads[1][1999] = 'Z';
    std::string stream;
    for (const std::string &p : payloads)
        stream += encodeFrame(p);

    Rng rng(0xc0ffee);
    for (int round = 0; round < 32; ++round) {
        SocketPair sp;
        std::thread writer([&] {
            size_t off = 0;
            while (off < stream.size()) {
                size_t chunk =
                    1 + rng.below(std::min<size_t>(
                            97, stream.size() - off));
                size_t sent = 0;
                while (sent < chunk) {
                    ssize_t n = ::write(sp.fds[0], stream.data() + off +
                                                       sent,
                                        chunk - sent);
                    ASSERT_GT(n, 0);
                    sent += static_cast<size_t>(n);
                }
                off += chunk;
            }
            sp.closeEnd(0);
        });
        std::vector<std::string> got;
        std::string payload;
        while (readFrame(sp.fds[1], payload, 5.0))
            got.push_back(payload);
        writer.join();
        ASSERT_EQ(got.size(), payloads.size()) << "round " << round;
        for (size_t i = 0; i < payloads.size(); ++i)
            EXPECT_EQ(got[i], payloads[i]) << "round " << round;
    }
}

TEST(FramingFuzz, FlippedPayloadBytesStayFrameAligned)
{
    // Payload damage must not desync framing: flip bytes strictly
    // inside frame 1's payload and frame 2 must still arrive intact.
    const std::string a = "{\"type\":\"status\",\"id\":42}";
    const std::string b = "{\"type\":\"list\"}";
    const std::string stream = encodeFrame(a) + encodeFrame(b);
    Rng rng(0xf11bull);
    for (int round = 0; round < 32; ++round) {
        std::string damaged = stream;
        size_t at = 4 + rng.below(a.size());
        damaged[at] ^= static_cast<char>(1 + rng.below(255));
        std::string err;
        std::vector<std::string> got = drainStream(damaged, &err);
        EXPECT_TRUE(err.empty()) << err;
        ASSERT_EQ(got.size(), 2u) << "round " << round;
        EXPECT_EQ(got[0].size(), a.size());
        EXPECT_EQ(got[1], b);
    }
}

TEST(FramingFuzz, DamagedEnvelopesNeverWriteASnapshot)
{
    EnvelopeRig rig("fuzz-envelope");
    std::unique_ptr<Conn> worker = rig.connect(makeWorkerHello("fuzzer"));
    Json claim = Json::object();
    claim["type"] = "claim";
    Json job = roundTrip(*worker, claim.dump());
    ASSERT_EQ(job.str("type"), "job") << job.dump();
    ASSERT_EQ(job.num("id"), rig.id);
    long long lease = job.num("lease_id");

    Json progress = Json::object();
    progress["type"] = "progress";
    progress["id"] = rig.id;
    progress["lease_id"] = lease;
    progress["generation"] = 1;
    const std::string doc = progress.dump();
    const std::string snapshot = "cirfix-snapshot\n\x01\x02 bytes";
    Rng rng(0xe7e1097eull);

    // A NUL anywhere inside the document cuts it short: the part
    // before it never parses, whatever follows.
    for (int round = 0; round < 48; ++round) {
        std::string payload = doc + std::string(1, '\0') + snapshot;
        payload.insert(rng.below(doc.size()), 1, '\0');
        Json reply = roundTrip(*worker, payload);
        EXPECT_EQ(reply.str("code"), errc::kBadRequest)
            << "round " << round << ": " << reply.dump();
    }
    // Garbage before the NUL.
    for (int round = 0; round < 16; ++round) {
        std::string garbage(1 + rng.below(64), 'x');
        for (char &c : garbage)
            c = static_cast<char>(1 + rng.below(255));
        Json reply = roundTrip(*worker, garbage + '\0' + snapshot);
        EXPECT_EQ(reply.str("code"), errc::kBadRequest)
            << "round " << round << ": " << reply.dump();
    }
    // A stale lease, with a well-formed envelope.
    Json stale = progress;
    stale["lease_id"] = lease + 1000;
    EXPECT_EQ(roundTrip(*worker, packEnvelope(stale, snapshot)).str("code"),
              errc::kLeaseLost);
    EXPECT_FALSE(std::filesystem::exists(rig.snapshotFile()));

    // A heartbeat carries no snapshot: a large tail is ignored.
    Json beat = Json::object();
    beat["type"] = "heartbeat";
    beat["id"] = rig.id;
    beat["lease_id"] = lease;
    Json reply = roundTrip(*worker,
                           packEnvelope(beat, std::string(1 << 20, 'z')));
    EXPECT_EQ(reply.str("type"), "ok") << reply.dump();
    EXPECT_FALSE(std::filesystem::exists(rig.snapshotFile()));

    // Control: the live lease's envelope is written byte for byte.
    reply = roundTrip(*worker, packEnvelope(progress, snapshot));
    EXPECT_EQ(reply.str("type"), "ok") << reply.dump();
    EXPECT_EQ(cirfix::core::readFileOrEmpty(rig.snapshotFile()), snapshot);
    EXPECT_EQ(roundTrip(*worker, packEnvelope(stale, "stale bytes"))
                  .str("code"),
              errc::kLeaseLost);
    EXPECT_EQ(cirfix::core::readFileOrEmpty(rig.snapshotFile()), snapshot);

    // A length prefix past the frame cap drops the connection before
    // anything is read or written; the coordinator keeps serving.
    uint64_t huge = static_cast<uint64_t>(kMaxFrameBytes) + 1;
    std::string wire = {static_cast<char>(huge >> 24),
                        static_cast<char>(huge >> 16),
                        static_cast<char>(huge >> 8),
                        static_cast<char>(huge)};
    wire += doc + '\0' + "oversized";
    // MSG_NOSIGNAL: the coordinator may hang up mid-send.
    ASSERT_GT(::send(worker->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
              0);
    std::string ignored;
    bool open = true;
    try {
        open = worker->readFrame(&ignored);
    } catch (const ConnectionClosed &) {
        open = false;  // closed with our bytes unread: a reset
    }
    EXPECT_FALSE(open);
    EXPECT_EQ(cirfix::core::readFileOrEmpty(rig.snapshotFile()), snapshot);
    std::unique_ptr<Conn> again = rig.connect(makeHello());
    Json list = Json::object();
    list["type"] = "list";
    EXPECT_EQ(roundTrip(*again, list.dump()).str("type"), "list");
}

TEST(FramingFuzz, EnvelopeOnAClientConnectionIsBadRequest)
{
    EnvelopeRig rig("fuzz-envelope-client");
    std::unique_ptr<Conn> client = rig.connect(makeHello());
    Json list = Json::object();
    list["type"] = "list";
    Json reply = roundTrip(*client, packEnvelope(list, "snapshot"));
    EXPECT_EQ(reply.str("code"), errc::kBadRequest) << reply.dump();
    // The connection survives and still answers.
    EXPECT_EQ(roundTrip(*client, list.dump()).str("type"), "list");
}

// ---------------------------------------------------------------
// Nesting depth: hostile documents and designs
// ---------------------------------------------------------------

namespace {

/** @p depth nested arrays: [[[...]]]. */
std::string
nestedArrays(size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

/** A module whose one assign nests @p depth parentheses. */
std::string
deepParenDesign(size_t depth)
{
    return "module dut(a, y);\n input a;\n output y;\n assign y = " +
           std::string(depth, '(') + "a" + std::string(depth, ')') +
           ";\nendmodule\nmodule tb;\n reg a;\n wire y;\n"
           " dut d(.a(a), .y(y));\nendmodule\n";
}

/** A module whose one assign is a flat chain a+a+...+a of @p terms
 *  terms: no parentheses, but a left-deep tree @p terms - 1 high. */
std::string
longChainDesign(size_t terms)
{
    std::string chain = "a";
    chain.reserve(2 * terms);
    for (size_t i = 1; i < terms; ++i)
        chain += "+a";
    return "module dut(a, y);\n input a;\n output y;\n assign y = " +
           chain +
           ";\nendmodule\nmodule tb;\n reg a;\n wire y;\n"
           " dut d(.a(a), .y(y));\nendmodule\n";
}

} // namespace

TEST(FramingFuzz, JsonNestingIsBoundedExactly)
{
    EXPECT_NO_THROW(Json::parse(nestedArrays(kMaxJsonDepth)));
    EXPECT_THROW(Json::parse(nestedArrays(kMaxJsonDepth + 1)),
                 std::runtime_error);
    // 50,000 levels is a 100 KB document: without the bound the
    // recursive parser runs off the stack.
    EXPECT_THROW(Json::parse(nestedArrays(50000)), std::runtime_error);
    EXPECT_THROW(Json::parse(std::string(50000, '{')), std::runtime_error);
}

TEST(FramingFuzz, DeepJsonIsBadRequestAndTheDaemonAnswers)
{
    EnvelopeRig rig("fuzz-deep-json");
    const std::string deep = nestedArrays(50000);
    Json status = Json::object();
    status["type"] = "status";
    status["id"] = rig.id;

    // As a request on a client connection, and as a frame on a worker
    // connection: bad_request, and the connection keeps answering.
    std::unique_ptr<Conn> client = rig.connect(makeHello());
    EXPECT_EQ(roundTrip(*client, deep).str("code"), errc::kBadRequest);
    EXPECT_EQ(roundTrip(*client, status.dump()).str("type"), "status");
    std::unique_ptr<Conn> worker = rig.connect(makeWorkerHello("deep"));
    EXPECT_EQ(roundTrip(*worker, deep + '\0' + "bytes").str("code"),
              errc::kBadRequest);

    // As the first frame, in place of a hello.
    std::unique_ptr<Conn> raw =
        dial(Address::parse(rig.server->boundAddress()), 5.0);
    raw->setIoDeadline(10.0);
    EXPECT_EQ(roundTrip(*raw, deep).str("code"), errc::kBadRequest);

    std::unique_ptr<Conn> after = rig.connect(makeHello());
    EXPECT_EQ(roundTrip(*after, status.dump()).str("type"), "status");
}

TEST(FramingFuzz, DeepDesignsFailTheirJobsAndTheDaemonStaysUp)
{
    std::string base = ::testing::TempDir() + "fuzz-deep-design." +
                       std::to_string(::getpid());
    ServerConfig cfg;
    cfg.listenAddress = "unix:" + base + ".sock";
    cfg.stateDir = base + "-state";
    std::filesystem::remove_all(cfg.stateDir);
    cfg.workers = 1;  // the design is parsed inside the daemon process
    Server server(cfg);
    server.start();
    Client client(server.boundAddress());

    std::vector<long> ids;
    for (const std::string &design :
         {deepParenDesign(50000), longChainDesign(200000)}) {
        JobSpec spec;
        spec.designSource = design;
        spec.tbModule = "tb";
        spec.dutModule = "dut";
        spec.oracleCsv = "time\n";
        ids.push_back(client.submit(spec));
    }
    for (long id : ids) {
        Json summary;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        do {
            summary = client.status(id);
            if (summary.str("state") == "failed")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        } while (std::chrono::steady_clock::now() < deadline);
        EXPECT_EQ(summary.str("state"), "failed") << summary.dump();
        EXPECT_NE(summary.str("error").find("deeper than"),
                  std::string::npos)
            << summary.str("error");
    }
    // Still serving: a fresh connection lists both jobs.
    Client again(server.boundAddress());
    EXPECT_EQ(again.list().size(), 2u);
    server.stop();
}

TEST(FramingFuzz, LintExitsFourOnDeepDesigns)
{
    // The design at the bound parses; past it, and on the hostile
    // inputs, the CLI reports a parse error (exit 4), never a crash.
    EXPECT_NO_THROW(cirfix::verilog::parse(longChainDesign(
        static_cast<size_t>(cirfix::verilog::kMaxAstDepth) / 2)));
    EXPECT_THROW(cirfix::verilog::parse(longChainDesign(
                     static_cast<size_t>(cirfix::verilog::kMaxAstDepth))),
                 cirfix::verilog::ParseError);
    std::string base = ::testing::TempDir() + "fuzz-deep-lint." +
                       std::to_string(::getpid());
    int n = 0;
    for (const std::string &design :
         {deepParenDesign(50000), longChainDesign(200000)}) {
        std::string path = base + "." + std::to_string(n++) + ".v";
        std::ofstream(path) << design;
        std::string cmd = std::string(CIRFIX_CLI_BIN) + " lint " + path +
                          " > /dev/null 2>&1";
        int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << path;
        EXPECT_EQ(WEXITSTATUS(status), 4) << path;
    }
}

namespace {

/** A clocked DUT whose edited always block sits next to an assign
 *  nested @p depth parentheses deep, and a testbench around it. */
std::string
deepParenRegisterDesign(size_t depth)
{
    return "module dut(clk, a, y, q);\n input clk;\n input a;\n"
           " output y;\n output q;\n reg q;\n assign y = " +
           std::string(depth, '(') + "a" + std::string(depth, ')') +
           ";\n always @(posedge clk) begin\n  if (a)\n   q <= 1'b1;\n"
           "  else\n   q <= 1'b0;\n end\nendmodule\n"
           "module tb;\n reg clk;\n reg a;\n wire y;\n wire q;\n"
           " dut d(.clk(clk), .a(a), .y(y), .q(q));\nendmodule\n";
}

} // namespace

TEST(FramingFuzz, ScopedPrescreenOfADeepDesignRunsOnPoolThreads)
{
    // 505 levels is inside kMaxAstDepth; the same design past the
    // bound is still a parse error.
    EXPECT_THROW(cirfix::verilog::parse(deepParenRegisterDesign(
                     static_cast<size_t>(cirfix::verilog::kMaxAstDepth))),
                 cirfix::verilog::ParseError);
    std::shared_ptr<const cirfix::verilog::SourceFile> design =
        cirfix::verilog::parse(deepParenRegisterDesign(505));

    // Negate the if of dut's always block: an edit of the module that
    // holds the deep assign, so the scoped checks analyse it.
    int target = -1;
    cirfix::verilog::visitAll(
        *design->modules[0], [&](cirfix::verilog::Node &n) {
            if (n.kind == cirfix::verilog::NodeKind::If)
                target = n.id;
        });
    ASSERT_GE(target, 0);
    cirfix::core::Patch patch;
    cirfix::core::Edit edit;
    edit.kind = cirfix::core::EditKind::Template;
    edit.tmpl = cirfix::core::TemplateKind::NegateConditional;
    edit.target = target;
    patch.edits.push_back(edit);

    cirfix::core::RepairEngine engine(design, "tb", "dut", {}, {},
                                      cirfix::core::EngineConfig{});
    std::optional<std::vector<size_t>> touched =
        engine.touchedModules(patch);
    ASSERT_TRUE(touched.has_value());
    EXPECT_EQ(*touched, std::vector<size_t>{0});
    std::shared_ptr<const cirfix::verilog::SourceFile> patched =
        cirfix::core::applyPatch(*design, patch);

    constexpr int kJobs = 8;
    std::vector<cirfix::core::EvalOutcome> outcomes(
        kJobs, cirfix::core::EvalOutcome::Crashed);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < kJobs; ++i)
        jobs.push_back([&, i] {
            std::string error;
            outcomes[i] = engine.screen(*patched, patch, &error);
        });
    cirfix::core::EvalPool pool(4);
    pool.run(jobs);
    for (cirfix::core::EvalOutcome o : outcomes)
        EXPECT_EQ(o, cirfix::core::EvalOutcome::Ok);
}
