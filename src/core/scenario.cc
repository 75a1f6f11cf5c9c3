#include "core/scenario.h"

#include <stdexcept>

#include "verilog/parser.h"
#include "verilog/printer.h"

namespace cirfix::core {

using namespace verilog;
using sim::ProbeConfig;
using sim::RunLimits;

const char *
paperOutcomeName(PaperOutcome o)
{
    switch (o) {
      case PaperOutcome::Correct: return "correct";
      case PaperOutcome::PlausibleOnly: return "plausible-only";
      case PaperOutcome::NoRepair: return "no-repair";
    }
    return "?";
}

namespace {

int
countLoc(const std::string &src)
{
    int n = 0;
    bool nonblank = false;
    for (char c : src) {
        if (c == '\n') {
            if (nonblank)
                ++n;
            nonblank = false;
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            nonblank = true;
        }
    }
    if (nonblank)
        ++n;
    return n;
}

/** Parse DUT + testbench into one numbered file. */
std::shared_ptr<const SourceFile>
parseCombined(const std::string &dut_src, const std::string &tb_src)
{
    return std::shared_ptr<const SourceFile>(
        parse(dut_src + "\n" + tb_src));
}

} // namespace

int
ProjectSpec::projectLoc() const
{
    return countLoc(goldenSource);
}

int
ProjectSpec::testbenchLoc() const
{
    return countLoc(testbenchSource);
}

std::string
applyRewrites(const std::string &source,
              const std::vector<Rewrite> &rewrites)
{
    std::string out = source;
    for (const Rewrite &rw : rewrites) {
        size_t pos = out.find(rw.from);
        if (pos == std::string::npos)
            throw std::runtime_error(
                "defect rewrite pattern not found in golden source: \"" +
                rw.from + "\"");
        out.replace(pos, rw.from.size(), rw.to);
    }
    return out;
}

Trace
recordGoldenTrace(const ProjectSpec &project, bool verify_bench,
                  const RunLimits &limits, ProbeConfig *probe_out)
{
    const std::string &tb_src =
        verify_bench ? project.verifySource : project.testbenchSource;
    const std::string &top =
        verify_bench ? project.verifyModule : project.tbModule;
    auto file = parseCombined(project.goldenSource, tb_src);
    ProbeConfig probe = sim::deriveProbeConfig(*file, top);
    GuardedRun run = runGuarded(std::move(file), top, probe, {}, limits);
    if (run.outcome != EvalOutcome::Ok)  // a partial trace is no oracle
        throw std::runtime_error(
            "golden " + project.name + " under '" + top + "' ended " +
            evalOutcomeName(run.outcome) + ": " + run.error);
    if (probe_out)
        *probe_out = std::move(probe);
    return std::move(run.trace);
}

Scenario
buildScenarioFromSources(const ProjectSpec &project,
                         const std::string &faulty_dut_src,
                         const RunLimits &limits)
{
    Scenario sc;
    sc.project = &project;
    // Expected behavior: record from the previously-functioning design
    // (paper Section 4.1.2), plus the held-out verification data.
    sc.oracle = recordGoldenTrace(project, false, limits, &sc.probe);
    sc.faulty = parseCombined(faulty_dut_src, project.testbenchSource);
    sc.verifySource = project.verifySource;
    sc.verifyModule = project.verifyModule;
    sc.verifyOracle =
        recordGoldenTrace(project, true, limits, &sc.verifyProbe);
    return sc;
}

Scenario
buildScenario(const ProjectSpec &project, const DefectSpec &defect,
              const RunLimits &limits)
{
    // Transplant the defect, then assemble as for any faulty source.
    Scenario sc = buildScenarioFromSources(
        project, applyRewrites(project.goldenSource, defect.rewrites),
        limits);
    sc.defect = &defect;
    return sc;
}

std::string
patchedDutSource(const Scenario &scenario, const Patch &patch)
{
    auto patched = applyPatch(*scenario.faulty, patch);
    auto tb_file = parse(scenario.project->testbenchSource);
    std::string dut_src;
    for (const auto &m : patched->modules)
        if (!tb_file->findModule(m->name))
            dut_src += print(*m) + "\n";
    return dut_src;
}

RepairEngine
Scenario::makeEngine(const EngineConfig &config) const
{
    const std::string &dut = defect && !defect->repairModule.empty()
                                 ? defect->repairModule
                                 : project->dutModule;
    return RepairEngine(faulty, project->tbModule, dut, probe, oracle,
                        config);
}

FitnessResult
Scenario::baselineFitness(const EngineConfig &config) const
{
    RepairEngine engine = makeEngine(config);
    return engine.evaluate(Patch{}).fit;
}

bool
checkCorrectness(const Scenario &scenario, const Patch &patch,
                 const RunLimits &limits)
{
    // Same containment contract as candidate evaluation: a verification
    // run that ends in anything but ok means the candidate is not a
    // correct repair — never a crashed run.
    GuardedRun run =
        runGuarded(parse(patchedDutSource(scenario, patch) + "\n" +
                         scenario.verifySource),
                   scenario.verifyModule, scenario.verifyProbe, {},
                   limits);
    return run.outcome == EvalOutcome::Ok &&
           evaluateFitness(run.trace, scenario.verifyOracle).plausible();
}

} // namespace cirfix::core
