#include "lint/lint.h"

#include <sstream>
#include <stdexcept>

#include "lint/checks.h"
#include "lint/netgraph.h"

namespace cirfix::lint {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Off: return "off";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

const std::vector<CheckInfo> &
checkRegistry()
{
    // Error severity is reserved for findings that make a design
    // either unsimulatable or incapable of a better outcome than
    // worst-fitness (the mutant pre-screen rejects on *new* errors
    // without simulating). Everything stylistic stays a warning.
    static const std::vector<CheckInfo> kChecks = {
        {"multi-driven-net", Severity::Error,
         "wire with conflicting continuous/instance drivers"},
        {"multi-driven-reg", Severity::Warning,
         "reg assigned from more than one always block"},
        {"mixed-assign", Severity::Warning,
         "reg written by both blocking and non-blocking assigns"},
        {"duplicate-decl", Severity::Warning,
         "name declared more than once at the same kind"},
        {"comb-loop", Severity::Error,
         "zero-delay combinational feedback loop"},
        {"empty-sens", Severity::Error,
         "event control with an empty sensitivity list"},
        {"incomplete-sens", Severity::Warning,
         "level-sensitive block missing signals it reads"},
        {"inferred-latch", Severity::Warning,
         "combinational path that skips an assignment"},
        {"width-mismatch", Severity::Warning,
         "assignment or port connection truncates its value"},
        {"dead-code", Severity::Warning,
         "statement or branch that can never execute"},
    };
    return kChecks;
}

namespace {

Severity
severityOf(const std::string &check, const Options &opts)
{
    auto o = opts.overrides.find(check);
    if (o != opts.overrides.end())
        return o->second;
    for (auto &c : checkRegistry())
        if (check == c.id)
            return c.defaultSeverity;
    return Severity::Warning;
}

bool
matchesWaiver(const Diagnostic &d, const Waiver &w)
{
    if (d.check != w.check)
        return false;
    if (!w.module.empty() && d.module != w.module)
        return false;
    if (!w.signal.empty() && d.signal != w.signal)
        return false;
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * The one lint driver. Runs the checks @p wanted selects over every
 * module of @p file, or over only @p modules when non-null (then
 * @p otherInfo, a same-declarations analysis of every module, answers
 * instance lookups), and resolves severities and waivers.
 */
Result
runChecks(const verilog::SourceFile &file, const Options &opts,
          const std::vector<bool> &wanted,
          const std::vector<size_t> *modules,
          const std::map<std::string, ModuleInfo> *otherInfo)
{
    Result r;
    auto checkModule = [&](const verilog::Module &mod,
                           const ModuleInfo &info,
                           const std::map<std::string, ModuleInfo> &all) {
        CheckContext cx{file, mod, info, all, wanted, r.diags};
        checkDrivers(cx);
        checkCombLoops(cx);
        checkProcesses(cx);
        checkWidths(cx);
        checkDeadCode(cx);
    };
    if (modules) {
        for (size_t i : *modules) {
            const verilog::Module &mod = *file.modules.at(i);
            checkModule(mod, analyzeModule(mod, file), *otherInfo);
        }
    } else {
        // Analyze every module first so cross-module checks (instance
        // port widths) can look up their targets.
        std::map<std::string, ModuleInfo> infos;
        for (auto &mod : file.modules)
            infos.emplace(mod->name, analyzeModule(*mod, file));
        for (auto &mod : file.modules)
            checkModule(*mod, infos.at(mod->name), infos);
    }

    // Resolve severities and waivers; drop checks configured Off.
    std::vector<Diagnostic> kept;
    kept.reserve(r.diags.size());
    for (auto &d : r.diags) {
        d.severity = severityOf(d.check, opts);
        if (d.severity == Severity::Off)
            continue;
        for (auto &w : opts.waivers)
            if (matchesWaiver(d, w)) {
                d.waived = true;
                break;
            }
        if (!d.waived) {
            if (d.severity == Severity::Error)
                ++r.errors;
            else
                ++r.warnings;
        }
        kept.push_back(std::move(d));
    }
    r.diags = std::move(kept);
    return r;
}

/** Registry entries that resolve to a severity @p keep accepts. */
template <class Keep>
std::vector<bool>
checksWhere(const Options &opts, Keep keep)
{
    std::vector<bool> wanted;
    for (auto &c : checkRegistry())
        wanted.push_back(keep(c.id, severityOf(c.id, opts)));
    return wanted;
}

} // namespace

Result
run(const verilog::SourceFile &file, const Options &opts)
{
    // Findings of Off checks are dropped anyway: skip their work.
    return runChecks(file, opts,
                     checksWhere(opts,
                                 [](const char *, Severity s) {
                                     return s != Severity::Off;
                                 }),
                     nullptr, nullptr);
}

Prescreen::Prescreen(const verilog::SourceFile &baseline, Options opts)
    : opts_(std::move(opts))
{
    // Only unwaived error findings reach a fingerprint, so a check
    // that resolves below Error, or that a waiver silences in every
    // module, can never reject.
    wanted_ = checksWhere(opts_, [&](const char *id, Severity s) {
        if (s != Severity::Error)
            return false;
        for (auto &w : opts_.waivers)
            if (w.check == id && w.module.empty() && w.signal.empty())
                return false;
        return true;
    });
    baseline_ =
        fingerprint(runChecks(baseline, opts_, wanted_, nullptr, nullptr));
    for (auto &mod : baseline.modules)
        baselineInfo_.emplace(mod->name, analyzeModule(*mod, baseline));
}

long
Prescreen::newErrors(const verilog::SourceFile &patched,
                     const std::vector<size_t> *modules,
                     std::string *firstMessage) const
{
    // Unchecked modules lint exactly as in the baseline, so their
    // error counts never exceed it: leaving them out of the candidate
    // changes neither the count nor the first new key.
    return newErrorCount(baseline_,
                         runChecks(patched, opts_, wanted_, modules,
                                   &baselineInfo_),
                         firstMessage);
}

Fingerprint
fingerprint(const Result &r)
{
    Fingerprint fp;
    for (auto &d : r.diags) {
        if (d.waived || d.severity != Severity::Error)
            continue;
        ++fp[d.check + "|" + d.module + "|" + d.signal];
    }
    return fp;
}

long
newErrorCount(const Fingerprint &baseline, const Result &candidate,
              std::string *firstMessage)
{
    Fingerprint cand = fingerprint(candidate);
    long fresh = 0;
    std::string first_key;
    for (auto &[key, count] : cand) {
        auto b = baseline.find(key);
        long base = b == baseline.end() ? 0 : b->second;
        if (count > base) {
            if (fresh == 0)
                first_key = key;
            fresh += count - base;
        }
    }
    if (fresh > 0 && firstMessage) {
        for (auto &d : candidate.diags) {
            if (d.waived || d.severity != Severity::Error)
                continue;
            if (d.check + "|" + d.module + "|" + d.signal == first_key) {
                *firstMessage = d.message;
                break;
            }
        }
    }
    return fresh;
}

std::vector<Waiver>
parseWaivers(const std::string &text)
{
    std::vector<Waiver> out;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        Waiver w;
        if (!(fields >> w.check))
            continue;  // blank / comment-only line
        bool known = false;
        for (auto &c : checkRegistry())
            known |= w.check == c.id;
        if (!known)
            throw std::runtime_error(
                "waiver line " + std::to_string(lineno) +
                ": unknown check '" + w.check + "'");
        fields >> w.module >> w.signal;
        std::string extra;
        if (fields >> extra)
            throw std::runtime_error(
                "waiver line " + std::to_string(lineno) +
                ": trailing token '" + extra + "'");
        out.push_back(std::move(w));
    }
    return out;
}

std::string
renderText(const Result &r)
{
    std::ostringstream out;
    for (auto &d : r.diags) {
        out << d.module << ':' << d.span.str() << ": "
            << severityName(d.severity);
        if (d.waived)
            out << " (waived)";
        out << ": " << d.message << " [" << d.check << "]\n";
    }
    out << r.errors << " error(s), " << r.warnings << " warning(s)\n";
    return out.str();
}

std::string
renderJson(const Result &r)
{
    std::ostringstream out;
    out << "{\n  \"errors\": " << r.errors
        << ",\n  \"warnings\": " << r.warnings
        << ",\n  \"diagnostics\": [";
    bool first = true;
    for (auto &d : r.diags) {
        out << (first ? "" : ",") << "\n    {\"check\": \""
            << jsonEscape(d.check) << "\", \"severity\": \""
            << severityName(d.severity) << "\", \"module\": \""
            << jsonEscape(d.module) << "\", \"signal\": \""
            << jsonEscape(d.signal) << "\", \"line\": " << d.span.line
            << ", \"col\": " << d.span.col
            << ", \"endLine\": " << d.span.endLine
            << ", \"endCol\": " << d.span.endCol
            << ", \"waived\": " << (d.waived ? "true" : "false")
            << ", \"message\": \"" << jsonEscape(d.message) << "\"}";
        first = false;
    }
    out << "\n  ]\n}\n";
    return out.str();
}

} // namespace cirfix::lint
