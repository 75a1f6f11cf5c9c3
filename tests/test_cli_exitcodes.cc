/**
 * @file
 * Exit-code contract of the cirfix CLI, asserted against the real
 * binary (CIRFIX_CLI_BIN is injected by CMake):
 *
 *   0  repair found / command succeeded
 *   1  lint found errors (or warnings under --Werror)
 *   2  no repair within the resource budget
 *   3  usage error (bad flags, unknown subcommand, unknown job)
 *   4  internal error (unreadable files, malformed designs)
 *   5  --timeout expired before the server answered
 *
 * Scripts and the CI harness depend on these staying stable.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "service/session.h"
#include "sim/trace.h"

namespace {

#ifndef CIRFIX_CLI_BIN
#error "CIRFIX_CLI_BIN must point at the cirfix binary"
#endif

std::string
tmpFile(const std::string &name, const std::string &content)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path);
    os << content;
    return path;
}

/** Run the CLI with @p args, discarding output; returns the exit
 *  code (or -1 if the process died on a signal). */
int
runCli(const std::string &args)
{
    std::string cmd = std::string(CIRFIX_CLI_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Run the CLI with @p args; returns its stdout (stderr discarded)
 *  and stores the exit code in @p code. */
std::string
cliOutput(const std::string &args, int *code)
{
    std::string cmd =
        std::string(CIRFIX_CLI_BIN) + " " + args + " 2>/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    std::string out;
    if (!pipe) {
        *code = -1;
        return out;
    }
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    int status = ::pclose(pipe);
    *code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

const char *kGolden = R"(
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
)";

const char *kTestbench = R"(
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
faultyDesign()
{
    std::string s = std::string(kGolden) + kTestbench;
    s.replace(s.find("rst == 1'b1"), 11, "rst != 1'b1");
    return s;
}

TEST(CliExitCodes, HelpSucceeds)
{
    EXPECT_EQ(runCli("--help"), 0);
    EXPECT_EQ(runCli("help"), 0);
}

TEST(CliExitCodes, UsageErrorsExitThree)
{
    EXPECT_EQ(runCli(""), 3);                       // no subcommand
    EXPECT_EQ(runCli("frobnicate"), 3);             // unknown command
    EXPECT_EQ(runCli("repair"), 3);                 // missing flags
    EXPECT_EQ(runCli("repair --design"), 3);        // flag needs value
    EXPECT_EQ(runCli("serve --socket s --state-dir d "
                     "--workers banana"),
              3);                                   // non-numeric flag
    EXPECT_EQ(runCli("serve --socket s --listen unix:l --state-dir d"),
              3);                                   // two addresses
    // Missing oracle/golden choice is a usage error, not an I/O one.
    std::string design = tmpFile("cli_u.v", faultyDesign());
    EXPECT_EQ(
        runCli("repair --design " + design + " --tb tb --dut dut"), 3);
}

TEST(CliExitCodes, UnknownFlagsExitThree)
{
    std::string clean = tmpFile(
        "cli_flags_clean.v",
        "module m(input a, output y); assign y = a; endmodule\n");
    EXPECT_EQ(runCli("lint --Werror --bogus-flag 7 " + clean), 3);
    EXPECT_EQ(runCli("lint --pop 10 " + clean), 3);  // another command's
    EXPECT_EQ(runCli("lint-bench --json"), 3);
    EXPECT_EQ(runCli("lint-bench " + clean), 3);    // takes no files
    EXPECT_EQ(runCli("help --pop 10"), 3);
    EXPECT_EQ(runCli("status --socket /nonexistent/sock --id 1 "
                     "--out r.v"),
              3);                                   // not exit 4: no dial
    // A misspelt flag must not run the search with the default pop.
    std::string design = tmpFile("cli_flags.v", faultyDesign());
    std::string golden = tmpFile("cli_flags_g.v", kGolden);
    EXPECT_EQ(runCli("repair --design " + design + " --tb tb --dut dut "
                     "--golden " + golden +
                     " --pops 10 --gens 1 --trials 1"),
              3);
}

TEST(CliExitCodes, ServeAcceptsSocketStateDirAndWorkers)
{
    // The flags are accepted; the daemon then fails to create its
    // state directory under a regular file, an internal error.
    std::string file = tmpFile("cli_serve_file", "");
    EXPECT_EQ(runCli("serve --socket " + file + ".sock --state-dir " +
                     file + "/state --workers 2"),
              4);
}

TEST(CliExitCodes, ServeTakesTheFleetAdmissionFlags)
{
    // The coordinator posture is serve --min-workers N; the command
    // that used to set it is gone.
    EXPECT_EQ(runCli("coordinator --listen unix:c --state-dir d"), 3);
    EXPECT_EQ(runCli("serve --socket s --state-dir d --lease-seconds 0"),
              3);
    EXPECT_EQ(runCli("serve --socket s --state-dir d --min-workers -1"),
              3);
    EXPECT_EQ(runCli("serve --socket s --state-dir d --local-workers 1"),
              3);
    // Accepted: the daemon then fails on its state directory.
    std::string file = tmpFile("cli_serve_fleet_file", "");
    EXPECT_EQ(runCli("serve --listen unix:" + file + ".sock --state-dir " +
                     file + "/state --workers 0 --min-workers 2 "
                     "--lease-seconds 5"),
              4);
}

TEST(CliExitCodes, InternalErrorsExitFour)
{
    // Unreadable input file.
    EXPECT_EQ(runCli("repair --design /nonexistent/x.v --tb tb "
                     "--dut dut --golden /nonexistent/g.v"),
              4);
    // Design that does not parse.
    std::string bad = tmpFile("cli_bad.v", "module; endmodule garbage");
    std::string golden = tmpFile("cli_g1.v", kGolden);
    EXPECT_EQ(runCli("repair --design " + bad + " --tb tb --dut dut "
                     "--golden " + golden),
              4);
    // Client commands against a daemon that is not there.
    EXPECT_EQ(runCli("status --socket /nonexistent/sock --id 1"), 4);
}

TEST(CliExitCodes, RepairFoundExitsZero)
{
    std::string design = tmpFile("cli_f.v", faultyDesign());
    std::string golden = tmpFile("cli_g2.v", kGolden);
    std::string out = ::testing::TempDir() + "cli_repaired.v";
    EXPECT_EQ(runCli("repair --design " + design + " --tb tb "
                     "--dut dut --golden " + golden +
                     " --pop 20 --gens 6 --seed 42 --trials 1 "
                     "--out " + out),
              0);
    std::ifstream repaired(out);
    EXPECT_TRUE(repaired.good());
}

TEST(CliExitCodes, LintCleanExitsZero)
{
    std::string clean = tmpFile(
        "cli_lint_clean.v",
        "module m(input a, output y); assign y = a; endmodule\n");
    EXPECT_EQ(runCli("lint " + clean), 0);
    EXPECT_EQ(runCli("lint --Werror " + clean), 0);
    EXPECT_EQ(runCli("lint --json " + clean), 0);
}

TEST(CliExitCodes, LintErrorsExitOne)
{
    std::string broken = tmpFile(
        "cli_lint_broken.v",
        "module m(input a, input b, output y);\n"
        "assign y = a;\nassign y = b;\nendmodule\n");
    EXPECT_EQ(runCli("lint " + broken), 1);
    EXPECT_EQ(runCli("lint --json " + broken), 1);

    // Warning-only designs pass by default, fail under --Werror, and
    // pass again when the finding is waived.
    std::string warn = tmpFile(
        "cli_lint_warn.v",
        "module m(input [7:0] a, output y); assign y = a; endmodule\n");
    EXPECT_EQ(runCli("lint " + warn), 0);
    EXPECT_EQ(runCli("lint --Werror " + warn), 1);
    std::string waivers =
        tmpFile("cli_lint.waivers", "width-mismatch m y\n");
    EXPECT_EQ(runCli("lint --Werror --waivers " + waivers + " " + warn),
              0);
}

TEST(CliExitCodes, LintUsageErrorsExitThree)
{
    EXPECT_EQ(runCli("lint"), 3);                    // no input files
    std::string clean = tmpFile(
        "cli_lint_u.v",
        "module m(input a, output y); assign y = a; endmodule\n");
    EXPECT_EQ(runCli("lint --check nope=error " + clean), 3);
    EXPECT_EQ(runCli("lint --check width-mismatch=loud " + clean), 3);
    // Unreadable input is an internal error, not usage.
    EXPECT_EQ(runCli("lint /nonexistent/x.v"), 4);
}

TEST(CliExitCodes, TimeoutExitsFive)
{
    // A Unix listener that never accepts: the CLI's connect succeeds
    // against the backlog, then the handshake read hits the --timeout
    // deadline. That must be exit code 5 — distinct from 4 (internal),
    // so scripts can tell "server slow/wedged" from "server absent".
    std::string path = ::testing::TempDir() + "cli_mute_" +
                       std::to_string(::getpid()) + ".sock";
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

    EXPECT_EQ(runCli("list --socket " + path + " --timeout 0.2"), 5);
    EXPECT_EQ(runCli("list --connect unix:" + path + " --timeout 0.2"),
              5);
    // A negative timeout is a usage error, not a timeout.
    EXPECT_EQ(runCli("list --socket " + path + " --timeout -1"), 3);

    ::close(fd);
    ::unlink(path.c_str());
}

TEST(CliExitCodes, BudgetExhaustedExitsTwo)
{
    // A starved search (population 2, one generation, one trial)
    // cannot repair the double-defect design: budget exhaustion.
    std::string s = faultyDesign();
    s.replace(s.find("q <= !q"), 7, "q <= q");
    std::string design = tmpFile("cli_hard.v", s);
    std::string golden = tmpFile("cli_g3.v", kGolden);
    EXPECT_EQ(runCli("repair --design " + design + " --tb tb "
                     "--dut dut --golden " + golden +
                     " --pop 2 --gens 1 --seed 1 --trials 1"),
              2);
}

/** Both toggle faults: seed 7 at pop 12 repairs it in generation 6,
 *  so three generations leave a checkpoint with work still to do. */
std::string
doubleFaultDesign()
{
    std::string s = faultyDesign();
    s.replace(s.find("q <= !q"), 7, "q <= q");
    return s;
}

TEST(CliExitCodes, SnapshotResumesAnInterruptedRepairBitIdentically)
{
    std::string design = tmpFile("cli_snap.v", doubleFaultDesign());
    std::string golden = tmpFile("cli_snap_g.v", kGolden);
    std::string snap = ::testing::TempDir() + "cli_resume.snap";
    std::string a = ::testing::TempDir() + "cli_resumed.v";
    std::string b = ::testing::TempDir() + "cli_uninterrupted.v";
    std::remove(snap.c_str());
    std::string common = "repair --design " + design +
                         " --tb tb --dut dut --golden " + golden +
                         " --pop 12 --seed 7 --trials 1 --threads 1";
    EXPECT_EQ(runCli(common + " --gens 3 --snapshot " + snap), 2);
    EXPECT_EQ(runCli(common + " --gens 20 --snapshot " + snap +
                     " --out " + a),
              0);
    EXPECT_EQ(runCli(common + " --gens 20 --out " + b), 0);
    std::string resumed = slurp(a);
    EXPECT_FALSE(resumed.empty());
    EXPECT_EQ(resumed, slurp(b));
    std::remove(snap.c_str());
}

TEST(CliExitCodes, SnapshotFromAnotherSeedExitsFour)
{
    std::string design = tmpFile("cli_seed.v", doubleFaultDesign());
    std::string golden = tmpFile("cli_seed_g.v", kGolden);
    std::string snap = ::testing::TempDir() + "cli_seed.snap";
    std::remove(snap.c_str());
    std::string common = "repair --design " + design +
                         " --tb tb --dut dut --golden " + golden +
                         " --pop 2 --gens 1 --trials 1 --snapshot " + snap;
    EXPECT_EQ(runCli(common), 2);  // default seed 1000
    EXPECT_EQ(runCli(common + " --seed 7"), 4);
    std::remove(snap.c_str());
}

TEST(CliExitCodes, RemovedRepairFlagsExitThree)
{
    std::string design = tmpFile("cli_gone.v", faultyDesign());
    std::string golden = tmpFile("cli_gone_g.v", kGolden);
    for (const char *flag : {"resume", "snapshot-every", "early-abort",
                             "lint", "offspring"}) {
        SCOPED_TRACE(flag);
        EXPECT_EQ(runCli("repair --design " + design +
                         " --tb tb --dut dut --golden " + golden +
                         " --pop 2 --gens 1 --trials 1 --" + flag + " 1"),
                  3);
    }
}

TEST(CliExitCodes, IslandRepairPrintsTheJobFingerprint)
{
    std::string source = doubleFaultDesign();
    std::string design = tmpFile("cli_islands.v", source);
    std::string golden = tmpFile("cli_islands_g.v", kGolden);
    int code = -1;
    std::string out = cliOutput(
        "repair --design " + design + " --tb tb --dut dut --golden " +
            golden +
            " --pop 12 --gens 6 --seed 7 --trials 1 --threads 1 "
            "--islands 2",
        &code);
    EXPECT_EQ(code, 0) << out;

    // The same request as a service job, with the command's defaults.
    cirfix::service::JobSpec spec;
    spec.designSource = source;
    spec.tbModule = "tb";
    spec.dutModule = "dut";
    spec.goldenSource = kGolden;
    spec.params.popSize = 12;
    spec.params.maxGenerations = 6;
    spec.params.maxSeconds = 60.0;
    spec.params.seed = 7;
    spec.params.numThreads = 1;
    spec.params.islands = 2;
    cirfix::service::SessionOutcome job =
        cirfix::service::runRepairJob(spec, "", nullptr, nullptr);
    ASSERT_EQ(job.state, cirfix::service::JobState::Done) << job.error;
    const cirfix::service::Json *islands = job.result.find("islands");
    ASSERT_NE(islands, nullptr);
    std::string fingerprint = islands->str("fingerprint");
    ASSERT_FALSE(fingerprint.empty());
    EXPECT_NE(out.find("  fingerprint: " + fingerprint + "\n"),
              std::string::npos)
        << out;
}

const char *kCounter = R"(
module counter (clk, reset, enable, counter_out, overflow_out);
    input clk;
    input reset;
    input enable;
    output [3:0] counter_out;
    output overflow_out;
    reg [3:0] counter_out;
    reg overflow_out;
    always @(posedge clk)
    begin
        if (reset == 1'b1) begin
            counter_out <= #1 4'b0000;
            overflow_out <= #1 1'b0;
        end
        else if (enable == 1'b1) begin
            counter_out <= #1 counter_out + 1;
        end
        if (counter_out == 4'b1111) begin
            overflow_out <= #1 1'b1;
        end
    end
endmodule
)";

TEST(CliExitCodes, WitnessJsonParsesAndCarriesTheOracle)
{
    // The patched counter's overflow fires at 7 instead of 15.
    std::string early = kCounter;
    early.replace(early.find("4'b1111"), 7, "4'b0111");
    std::string golden = tmpFile("cli_witness_g.v", kCounter);
    std::string patched = tmpFile("cli_witness_p.v", early);
    int code = -1;
    std::string out = cliOutput("witness --golden " + golden +
                                    " --patched " + patched +
                                    " --dut counter --seed 7 --tries 4000 "
                                    "--cycles 24 --json",
                                &code);
    ASSERT_EQ(code, 0) << out;
    cirfix::service::Json j = cirfix::service::Json::parse(out);
    EXPECT_TRUE(j.flag("found"));
    EXPECT_GT(j.num("tries"), 0);
    EXPECT_GE(j.num("steps_before_min"), j.num("steps"));
    EXPECT_EQ(j.str("module"), "__cirfix_witness0");
    EXPECT_EQ(j.str("clock"), "__wclk");
    ASSERT_NE(j.find("signals"), nullptr);
    ASSERT_EQ(j.find("signals")->size(), 2u);
    EXPECT_EQ(j.find("signals")->items()[0].asString(), "counter_out");
    EXPECT_NE(j.str("bench_source").find("module __cirfix_witness0"),
              std::string::npos);
    cirfix::sim::Trace oracle =
        cirfix::sim::Trace::fromCsv(j.str("oracle_csv"));
    EXPECT_EQ(static_cast<int64_t>(oracle.rows().size()),
              j.num("oracle_rows"));
    EXPECT_EQ(oracle.toCsv(), j.str("oracle_csv"));
}

} // namespace
