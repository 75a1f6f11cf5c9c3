#include "sim/probe.h"

#include <algorithm>

namespace cirfix::sim {

using namespace verilog;

ProbeConfig
deriveProbeConfig(const SourceFile &file, const std::string &testbench)
{
    const Module *tb = file.findModule(testbench);
    if (!tb)
        throw ElabError("testbench module '" + testbench + "' not found");

    // Locate the DUT: the first instantiation inside the testbench.
    const Instance *dut = nullptr;
    for (auto &item : tb->items) {
        if (item->kind == NodeKind::Instance) {
            dut = item->as<Instance>();
            break;
        }
    }
    if (!dut)
        throw ElabError("no DUT instantiation found in testbench '" +
                        testbench + "'");
    const Module *dut_mod = file.findModule(dut->moduleName);
    if (!dut_mod)
        throw ElabError("DUT module '" + dut->moduleName + "' not found");

    ProbeConfig config;
    for (auto &p : dut_mod->ports) {
        if (p.dir == PortDir::Output || p.dir == PortDir::Inout)
            config.signals.push_back(dut->instName + "." + p.name);
    }
    if (config.signals.empty())
        throw ElabError("DUT module '" + dut->moduleName +
                        "' has no output ports to record");

    // Clock: prefer a testbench signal literally named clk/clock;
    // otherwise take whatever drives a DUT input port named clk/clock.
    auto is_clock_name = [](const std::string &n) {
        std::string low;
        for (char c : n)
            low.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        return low == "clk" || low == "clock" || low == "mclk" ||
               low == "sysclk";
    };
    for (auto &item : tb->items) {
        if (item->kind != NodeKind::VarDecl)
            continue;
        auto *d = item->as<VarDecl>();
        if ((d->varKind == VarKind::Reg || d->varKind == VarKind::Wire) &&
            is_clock_name(d->name)) {
            config.clock = d->name;
            break;
        }
    }
    if (config.clock.empty()) {
        for (size_t i = 0; i < dut->conns.size(); ++i) {
            const PortConn &c = dut->conns[i];
            std::string port = c.port.empty()
                                   ? (i < dut_mod->ports.size()
                                          ? dut_mod->ports[i].name
                                          : std::string())
                                   : c.port;
            if (is_clock_name(port) && c.expr &&
                c.expr->kind == NodeKind::Ident) {
                config.clock = c.expr->as<Ident>()->name;
                break;
            }
        }
    }
    if (config.clock.empty())
        throw ElabError("could not determine the testbench clock for '" +
                        testbench + "'");
    return config;
}

TraceRecorder::TraceRecorder(Design &design, const ProbeConfig &config)
    : design_(design), startTime_(config.startTime)
{
    std::vector<std::string> names;
    for (auto &path : config.signals) {
        SignalRef r = design.findSignal(path);
        if (!r.sig)
            throw ElabError("probe signal '" + path + "' not found");
        refs_.push_back(r);
        names.push_back(path);
    }
    trace_ = Trace(std::move(names));

    SignalRef clk = design.findSignal(config.clock);
    if (!clk.sig)
        throw ElabError("probe clock '" + config.clock + "' not found");

    clk.sig->addWatcher([this](const LogicVec &oldv,
                               const LogicVec &newv) {
        if (!edgeMatches(Edge::Pos, oldv.bit(0), newv.bit(0)))
            return;
        if (pending_)
            return;
        pending_ = true;
        design_.scheduler().schedulePostponed([this] {
            pending_ = false;
            sample();
        });
    });
}

void
TraceRecorder::sample()
{
    SimTime now = design_.scheduler().now();
    if (now < startTime_)
        return;
    std::vector<LogicVec> values;
    values.reserve(refs_.size());
    for (auto &r : refs_)
        values.push_back(r.sig->value());
    trace_.addRow(now, std::move(values));
}

} // namespace cirfix::sim
