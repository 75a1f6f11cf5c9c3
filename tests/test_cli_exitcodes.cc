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

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

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

} // namespace
