#include "sim/vcd.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace cirfix::sim {

namespace {

/** Emit a value in VCD syntax: scalar "0?" or vector "b1010 ?". */
void
emitValue(std::string &out, const LogicVec &v, const std::string &code)
{
    if (v.width() == 1) {
        out.push_back(bitChar(v.bit(0)));
        out += code;
        out.push_back('\n');
    } else {
        out.push_back('b');
        out += v.toString();
        out.push_back(' ');
        out += code;
        out.push_back('\n');
    }
}

} // namespace

VcdRecorder::VcdRecorder(Design &design, const std::string &timescale)
    : timescale_(timescale), design_(design)
{
    collectScope(design, design.top());
}

VcdRecorder::VcdRecorder(Design &design,
                         const std::vector<std::string> &paths,
                         const std::string &timescale)
    : timescale_(timescale), design_(design)
{
    for (const std::string &p : paths) {
        SignalRef r = design.findSignal(p);
        if (r.sig)
            attach(design, r.sig, p);
    }
}

void
VcdRecorder::collectScope(Design &design, InstanceScope &scope)
{
    // Deterministic order: sort names (maps are unordered).
    std::vector<std::pair<std::string, Signal *>> sigs;
    std::unordered_set<Signal *> seen;
    for (auto &[name, ref] : scope.signals) {
        if (ref.sig && seen.insert(ref.sig).second)
            sigs.emplace_back(name, ref.sig);
    }
    std::sort(sigs.begin(), sigs.end());
    for (auto &[name, sig] : sigs) {
        std::string path =
            scope.path.empty() ? name : scope.path + "." + name;
        attach(design, sig, path);
    }
    std::vector<InstanceScope *> children;
    for (auto &c : scope.children)
        children.push_back(c.get());
    std::sort(children.begin(), children.end(),
              [](auto *a, auto *b) { return a->path < b->path; });
    for (InstanceScope *c : children)
        collectScope(design, *c);
}

std::string
VcdRecorder::codeFor(size_t index)
{
    // Printable identifier codes: base-94 over '!'..'~'.
    std::string code;
    do {
        code.push_back(static_cast<char>('!' + index % 94));
        index /= 94;
    } while (index > 0);
    return code;
}

void
VcdRecorder::attach(Design &design, Signal *sig, const std::string &path)
{
    (void)design;  // reserved for future per-design bookkeeping
    Var var{path, codeFor(vars_.size()), sig->width()};
    std::string code = var.code;
    vars_.push_back(std::move(var));

    sig->addWatcher([this, code](const LogicVec &, const LogicVec &nv) {
        SimTime now = design_.scheduler().now();
        if (!timeEmitted_ || now != lastTime_) {
            body_ += '#';
            body_ += std::to_string(now);
            body_ += '\n';
            lastTime_ = now;
            timeEmitted_ = true;
        }
        emitValue(body_, nv, code);
        ++changes_;
    });
}

std::string
VcdRecorder::document() const
{
    std::ostringstream os;
    os << "$date\n    (cirfix simulation)\n$end\n";
    os << "$version\n    cirfix VcdRecorder\n$end\n";
    os << "$timescale " << timescale_ << " $end\n";

    // Group variables by scope path for $scope sections. We emit a
    // flat module scope per instance path, which viewers accept.
    std::string current_scope = "\x01";  // sentinel: no scope yet
    std::vector<const Var *> ordered;
    for (auto &v : vars_)
        ordered.push_back(&v);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Var *a, const Var *b) {
                         auto scope_of = [](const std::string &p) {
                             size_t dot = p.rfind('.');
                             return dot == std::string::npos
                                        ? std::string()
                                        : p.substr(0, dot);
                         };
                         return scope_of(a->path) < scope_of(b->path);
                     });
    bool open = false;
    for (const Var *v : ordered) {
        size_t dot = v->path.rfind('.');
        std::string scope =
            dot == std::string::npos ? "top" : v->path.substr(0, dot);
        std::string leaf =
            dot == std::string::npos ? v->path
                                     : v->path.substr(dot + 1);
        if (scope != current_scope) {
            if (open)
                os << "$upscope $end\n";
            os << "$scope module " << scope << " $end\n";
            current_scope = scope;
            open = true;
        }
        os << "$var wire " << v->width << " " << v->code << " " << leaf;
        if (v->width > 1)
            os << " [" << v->width - 1 << ":0]";
        os << " $end\n";
    }
    if (open)
        os << "$upscope $end\n";
    os << "$enddefinitions $end\n";

    // Initial values ($dumpvars block): signals start as all-x at
    // elaboration time (the recorder attaches before run()), and the
    // change body below replays everything from there.
    os << "$dumpvars\n";
    for (const Var &v : vars_) {
        std::string init;
        emitValue(init, LogicVec::xs(v.width), v.code);
        os << init;
    }
    os << "$end\n";
    os << body_;
    return os.str();
}

} // namespace cirfix::sim
