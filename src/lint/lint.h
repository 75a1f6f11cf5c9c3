#pragma once

/**
 * @file
 * Semantic lint over the Verilog AST.
 *
 * Where validate() answers "would this design compile?", the lint
 * subsystem answers "is this design *sensible*?": multiply-driven
 * nets, combinational loops, inferred latches, incomplete sensitivity
 * lists, width truncation, dead statements. Every finding is a
 * structured Diagnostic with a check id, severity, and exact source
 * span, so the same machinery backs three consumers:
 *
 *  - the `cirfix lint` CLI workload (text or JSON output),
 *  - the repair loop's mutant pre-screen (reject candidates whose
 *    *new* error-severity findings prove them unsimulatable-or-doomed
 *    before paying for a simulation), and
 *  - CI gating of the benchmark designs (`--Werror` + waiver file).
 *
 * All analysis is static and elaboration-free: one pass over each
 * module builds a driver map and a zero-delay dependency graph (see
 * netgraph.h), then the check registry walks those structures. The
 * pass is deterministic — diagnostics are emitted in module order,
 * then check order, then source order — so fingerprints of two runs
 * over the same tree are always identical.
 *
 * One driver serves every consumer. run() checks every module under
 * every check that is not Off; Prescreen runs the same check
 * functions over a module set (the modules a patch edited) under a
 * check predicate (only checks that resolve to Error), and reuses
 * the baseline's analysis of the other modules for instance lookups.
 */

#include <map>
#include <string>
#include <vector>

#include "lint/netgraph.h"
#include "verilog/ast.h"

namespace cirfix::lint {

enum class Severity { Off, Warning, Error };

const char *severityName(Severity s);

/** One lint finding. */
struct Diagnostic
{
    std::string check;    //!< check id, e.g. "comb-loop"
    Severity severity = Severity::Warning;
    std::string module;   //!< enclosing module name
    std::string signal;   //!< primary subject signal ("" when n/a)
    verilog::Span span;   //!< source range of the offending construct
    std::string message;
    bool waived = false;  //!< suppressed by a waiver (still listed)
};

/**
 * Suppress matching diagnostics. Empty module/signal act as
 * wildcards, so {"inferred-latch", "", ""} waives the check globally
 * and {"width-mismatch", "tb", "data"} waives one signal in one
 * module.
 */
struct Waiver
{
    std::string check;
    std::string module;
    std::string signal;
};

struct Options
{
    /** Per-check severity overrides (id -> new severity). */
    std::map<std::string, Severity> overrides;
    std::vector<Waiver> waivers;
};

/** Registry metadata for one check. */
struct CheckInfo
{
    const char *id;
    Severity defaultSeverity;
    const char *summary;
};

/** All known checks, in diagnostic-emission order. */
const std::vector<CheckInfo> &checkRegistry();

struct Result
{
    std::vector<Diagnostic> diags;
    int errors = 0;    //!< unwaived error-severity findings
    int warnings = 0;  //!< unwaived warning-severity findings
};

/** Run every enabled check over @p file. */
Result run(const verilog::SourceFile &file, const Options &opts = {});

/**
 * Multiset of unwaived *error*-severity findings keyed by
 * "check|module|signal" — deliberately span-free, so a mutation that
 * only moves code cannot change the fingerprint of warts it did not
 * introduce.
 */
using Fingerprint = std::map<std::string, int>;

Fingerprint fingerprint(const Result &r);

/**
 * Number of error-severity findings in @p candidate that exceed the
 * baseline's multiplicity for the same key — i.e. errors the mutation
 * *introduced*. When nonzero and @p firstMessage is non-null, it
 * receives a human-readable description of one such finding.
 */
long newErrorCount(const Fingerprint &baseline, const Result &candidate,
                   std::string *firstMessage = nullptr);

/**
 * The repair loop's mutant pre-screen against one baseline design.
 *
 * It runs only the checks the options resolve to Error (minus those a
 * waiver silences everywhere), only on the modules a patch edited,
 * and counts the error findings the baseline did not have. The other
 * modules are not re-analysed: they lint as they did in the baseline,
 * and the baseline's ModuleInfo answers their instance lookups. That
 * is exact when the patched file differs from the baseline only
 * inside statements of the checked modules (no declaration or port
 * changed), which is what a statement-level edit does.
 *
 * The baseline must outlive the pre-screen (its ModuleInfo points into
 * the baseline's AST). newErrors() is const and thread-safe.
 */
class Prescreen
{
  public:
    Prescreen(const verilog::SourceFile &baseline, Options opts);

    /**
     * newErrorCount(fingerprint(run(baseline)), run(patched)), with
     * the same @p firstMessage, computed over only @p modules
     * (ascending indices into patched.modules; nullptr = every
     * module).
     */
    long newErrors(const verilog::SourceFile &patched,
                   const std::vector<size_t> *modules,
                   std::string *firstMessage = nullptr) const;

  private:
    Options opts_;
    /** Per registry entry: does the pre-screen run this check? */
    std::vector<bool> wanted_;
    std::map<std::string, ModuleInfo> baselineInfo_;
    Fingerprint baseline_;
};

/**
 * Parse a waiver file: one waiver per line, "check [module [signal]]",
 * '#' comments and blank lines ignored. Throws std::runtime_error on
 * an unknown check id or malformed line.
 */
std::vector<Waiver> parseWaivers(const std::string &text);

/** "check.v:3:5-3:12: error: ..." lines, one per diagnostic. */
std::string renderText(const Result &r);

/** Stable JSON document (schema documented in README.md). */
std::string renderJson(const Result &r);

} // namespace cirfix::lint
