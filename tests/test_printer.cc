/**
 * @file
 * Printer tests: regenerated Verilog must re-parse, and printing is a
 * fixed point (print(parse(print(x))) == print(x)).
 */

#include <gtest/gtest.h>

#include "verilog/parser.h"
#include "verilog/printer.h"

using namespace cirfix::verilog;

namespace {

void
expectRoundTrip(const std::string &src)
{
    auto f1 = parse(src);
    std::string p1 = print(*f1);
    std::unique_ptr<SourceFile> f2;
    ASSERT_NO_THROW(f2 = parse(p1)) << p1;
    std::string p2 = print(*f2);
    EXPECT_EQ(p1, p2) << "printing is not idempotent for:\n" << src;
}

TEST(Printer, SimpleModule)
{
    expectRoundTrip(R"(
module m (clk, q);
    input clk;
    output q;
    reg q;
    always @(posedge clk) q <= !q;
endmodule
)");
}

TEST(Printer, Expressions)
{
    expectRoundTrip(R"(
module m;
    wire [7:0] a, b;
    wire [7:0] y1, y2, y3, y4, y5;
    assign y1 = a + b * 2 - (a / b) % 3;
    assign y2 = (a << 2) | (b >> 1) & ~a ^ b;
    assign y3 = a == b ? {a[3:0], b[7:4]} : {2{a[1]}} + 6'd12;
    assign y4 = {8{a < b && b >= 3}};
    assign y5 = (a === 8'hzz) ? ^a : ~|b;
endmodule
)");
}

TEST(Printer, Statements)
{
    expectRoundTrip(R"(
module m;
    reg [3:0] q;
    reg clk;
    integer i;
    event done;
    always @(posedge clk or negedge q[0])
    begin : BLK
        if (q == 4'b1111) begin
            q <= #1 4'd0;
        end
        else begin
            q <= q + 1;
        end
        case (q)
            4'h0, 4'h1 : q <= 4'h2;
            4'h2 : ;
            default : begin
                q <= 4'hf;
            end
        endcase
        for (i = 0; i < 4; i = i + 1) q = q ^ 4'b0001;
        while (q > 0) q = q - 1;
        repeat (3) @(negedge clk);
        wait (q == 0) q = 4'h1;
        -> done;
        #5;
        $display("q=%b", q);
    end
endmodule
)");
}

TEST(Printer, NumbersKeepBases)
{
    auto file = parse(
        "module m; wire [7:0] w; assign w = 8'hab + 8'b101 + 13 + "
        "4'bx01z; endmodule");
    std::string out = print(*file);
    EXPECT_NE(out.find("8'hab"), std::string::npos);
    EXPECT_NE(out.find("13"), std::string::npos);
    EXPECT_NE(out.find("4'bx01z"), std::string::npos);
    expectRoundTrip(out);
}

TEST(Printer, Hierarchy)
{
    expectRoundTrip(R"(
module child (input a, input b, output y);
    assign y = a & b;
endmodule
module top (input x, output z);
    wire t;
    child c1 (.a(x), .b(1'b1), .y(t));
    child c2 (x, t, z);
endmodule
)");
}

TEST(Printer, AnsiPortsPrintStandalone)
{
    // ANSI input must regenerate as valid traditional-style output.
    expectRoundTrip(
        "module m (input clk, output reg [3:0] q);\n"
        "    always @(posedge clk) q <= q + 1;\nendmodule\n");
}

TEST(Printer, MemoriesAndParameters)
{
    expectRoundTrip(R"(
module m;
    parameter W = 4;
    parameter DEPTH = 16;
    localparam LAST = DEPTH - 1;
    reg [W-1:0] mem [0:LAST];
    reg [W-1:0] q;
    wire [3:0] addr;
    initial q = mem[addr];
endmodule
)");
}

TEST(Printer, EventControlWithoutStatement)
{
    expectRoundTrip(R"(
module m;
    reg clk;
    event go;
    initial begin
        @(go);
        @(posedge clk);
        @*;
    end
    always #5 clk = !clk;
endmodule
)");
}

TEST(Printer, StringEscapes)
{
    expectRoundTrip(
        "module m; initial $display(\"a\\nb\\t\\\"c\\\"\"); "
        "endmodule");
}

TEST(Printer, ForClauseThatIsNoAssignmentPrints)
{
    // A replace or delete edit can put any statement in a for loop's
    // init or step (crossover carries edit targets between parents),
    // and a loop printed as a donor must not read it as an Assign.
    auto file = parse(R"(
module m;
    integer i;
    reg [3:0] q;
    initial for (i = 0; i < 4; i = i + 1) begin q = i; end
endmodule
)");
    For *loop = nullptr;
    visitAll(*file, [&](Node &n) {
        if (n.kind == NodeKind::For)
            loop = n.as<For>();
    });
    ASSERT_NE(loop, nullptr);
    auto body = loop->body->cloneStmt();
    loop->init = std::make_unique<NullStmt>();
    loop->step = std::move(body);
    std::string text = printStmt(*loop);
    EXPECT_EQ(text.substr(0, text.find('\n')),
              "for (; (i < 4); begin     q = i; end)");
}

TEST(Printer, ExprPrinterStandalone)
{
    auto file = parse(
        "module m; wire [3:0] a; wire y; assign y = a[2] ^ a[3:1] == "
        "2; endmodule");
    const ContAssign *ca = nullptr;
    for (auto &it : file->modules[0]->items)
        if (it->kind == NodeKind::ContAssign)
            ca = it->as<ContAssign>();
    ASSERT_NE(ca, nullptr);
    std::string s = printExpr(*ca->rhs);
    EXPECT_NE(s.find("a[2]"), std::string::npos);
    EXPECT_NE(s.find("a[3:1]"), std::string::npos);
}

TEST(Printer, BenchmarkStyleSource)
{
    // A representative chunk of the benchmark idioms in one module.
    expectRoundTrip(R"(
module tb;
    reg clk, reset, enable;
    wire [3:0] counter_out;
    reg [7:0] slave_data;
    event reset_trigger, terminate_sim;
    integer i;

    always #5 clk = !clk;

    initial begin
        clk = 0;
        #10 -> reset_trigger;
        @(reset_trigger);
        @(negedge clk);
        reset = 1;
        repeat (21) begin
            @(negedge clk);
        end
        for (i = 0; i < 8; i = i + 1) begin
            slave_data <= {slave_data[6:0], slave_data[7]};
            @(negedge clk);
        end
        wait (counter_out == 4'hf);
        #5 -> terminate_sim;
        $finish;
    end
endmodule
)");
}

} // namespace
