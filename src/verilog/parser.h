#pragma once

/**
 * @file
 * Recursive-descent parser for the Verilog subset.
 *
 * Produces a SourceFile AST with node ids already assigned via
 * numberNodes(). Both ANSI ("module m(input clk, output reg [3:0] q)")
 * and traditional port declaration styles are accepted.
 */

#include <memory>
#include <stdexcept>
#include <string>

#include "verilog/ast.h"

namespace cirfix::verilog {

/** Deepest AST parse() builds: statement nesting plus expression
 *  height, where a left-deep chain like a+a+...+a counts one level per
 *  operator. The parser's own recursion (parentheses included) is
 *  bounded by the same number. Deeper input is a ParseError, so no
 *  recursive pass over an accepted tree can run off the stack. */
inline constexpr int kMaxAstDepth = 512;

/** Thrown on syntactically invalid input. */
struct ParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Parse Verilog source text into a numbered AST.
 *
 * @param source  Verilog source containing one or more modules.
 * @return The parsed source file; node ids are assigned in pre-order.
 * @throws ParseError / LexError on malformed input, and ParseError
 *         past kMaxAstDepth.
 */
std::unique_ptr<SourceFile> parse(const std::string &source);

} // namespace cirfix::verilog
