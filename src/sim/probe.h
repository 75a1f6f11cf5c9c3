#pragma once

/**
 * @file
 * Testbench instrumentation: the CirFix output probe.
 *
 * The paper instruments each testbench to record the values of the
 * DUT's output wires and registers at every rising clock edge
 * (Section 3.2). Because our simulator is a library, the same effect
 * is achieved by attaching a TraceRecorder to the elaborated design:
 * a watcher on the clock schedules a postponed (end-of-slot, read-only)
 * sample of the configured signals, so recorded values are the settled
 * values of that simulation instant.
 *
 * deriveProbeConfig() automates the static analysis the paper
 * describes: it locates the device-under-test instantiation inside the
 * testbench module, takes the DUT's output ports as the recorded
 * variable set, and picks the testbench's clock signal.
 */

#include <memory>
#include <string>
#include <vector>

#include "sim/design.h"
#include "sim/trace.h"

namespace cirfix::sim {

/** What to record and when. */
struct ProbeConfig
{
    /** Hierarchical path of the sampling clock (e.g., "clk"). */
    std::string clock;
    /** Hierarchical paths of the signals to record ("dut.count"). */
    std::vector<std::string> signals;
    /** Ignore samples before this time (reset settling). */
    SimTime startTime = 0;
};

/**
 * Statically derive a ProbeConfig from the testbench module: find the
 * first module instantiation (the DUT), record all of its output
 * ports, and use the testbench signal named "clk"/"clock" (or the
 * first signal connected to a DUT port of that name) as the clock.
 *
 * @throws ElabError if no DUT instance or clock can be found.
 */
ProbeConfig deriveProbeConfig(const verilog::SourceFile &file,
                              const std::string &testbench);

/** Samples configured signals at each rising clock edge. */
class TraceRecorder
{
  public:
    /** Attach to @p design; must be called before run(). */
    TraceRecorder(Design &design, const ProbeConfig &config);

    const Trace &trace() const { return trace_; }
    Trace takeTrace() { return std::move(trace_); }

  private:
    void sample();

    Design &design_;
    std::vector<SignalRef> refs_;
    SimTime startTime_;
    bool pending_ = false;
    Trace trace_;
};

} // namespace cirfix::sim
