#pragma once

/**
 * @file
 * Structural validation of (possibly mutated) ASTs.
 *
 * In the original CirFix pipeline a syntactically invalid mutant is one
 * the simulator refuses to compile. Because our repair operators edit
 * the AST directly, the corresponding failure mode is a structurally
 * ill-formed tree: references to undeclared names, assignments to
 * non-register targets in procedural code, triggers of non-events,
 * out-of-range constant part selects, and so on. validate() performs
 * those checks; a mutant with any error is discarded without being
 * simulated, exactly as a compile failure would be.
 *
 * Validation is a per-module pass: its only cross-module lookups are
 * the port lists of instantiated modules. So a caller that knows
 * which modules changed (the repair loop knows which modules a patch
 * edited) can validate just those; the unchanged ones validate as
 * they did before.
 */

#include <string>
#include <vector>

#include "verilog/ast.h"

namespace cirfix::verilog {

/** One validation diagnostic. */
struct ValidationError
{
    std::string module;
    std::string message;
    /** Source line of the nearest enclosing node (0 if unknown). */
    int line = 0;
    /** Full source range of that node (invalid if unknown). */
    Span span;
};

/**
 * Check a source file for structural well-formedness.
 *
 * @return The list of problems found; empty means the design would
 *         compile.
 */
std::vector<ValidationError> validate(const SourceFile &file);

/** Convenience wrapper: true iff validate() finds no problems. */
bool isValid(const SourceFile &file);

/**
 * As isValid(file), but checks only @p modules (indices into
 * file.modules). Instances are still resolved against every module of
 * the file.
 */
bool isValid(const SourceFile &file, const std::vector<size_t> &modules);

} // namespace cirfix::verilog
