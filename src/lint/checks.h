#pragma once

/**
 * @file
 * Internal interface between the lint driver (lint.cc) and the check
 * implementations (checks.cc). Not installed as public API: consumers
 * use lint.h.
 */

#include <map>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "lint/netgraph.h"

namespace cirfix::lint {

/** Everything a check needs about the module under analysis. */
struct CheckContext
{
    const verilog::SourceFile &file;
    const verilog::Module &mod;
    const ModuleInfo &info;
    /** ModuleInfo for every module in the file, keyed by name (for
     *  a pre-screen pass, the baseline's: same ports and widths). */
    const std::map<std::string, ModuleInfo> &allInfo;
    /** Per checkRegistry() entry: does this pass run the check? */
    const std::vector<bool> &wanted;
    std::vector<Diagnostic> &out;

    /** True when this pass runs check @p check. Check functions skip
     *  the work (and the messages) of checks it does not want. */
    bool wants(const char *check) const;

    /** Append a finding (severity is resolved later by the driver). */
    void emit(const char *check, std::string signal,
              const verilog::Node *where, std::string message);
};

// Check groups, in emission order.
void checkDrivers(CheckContext &cx);    // multi-driven-*, mixed-assign,
                                        // duplicate-decl
void checkCombLoops(CheckContext &cx);  // comb-loop
void checkProcesses(CheckContext &cx);  // empty-sens, incomplete-sens,
                                        // inferred-latch
void checkWidths(CheckContext &cx);     // width-mismatch
void checkDeadCode(CheckContext &cx);   // dead-code

} // namespace cirfix::lint
