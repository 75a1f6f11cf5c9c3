/**
 * @file
 * The fault localization walk-through of the paper's Section 2/3.1:
 * simulate the faulty 4-bit counter (missing overflow reset), compare
 * its trace against the expected behavior, and run the fixed-point
 * analysis of Algorithm 2 to see which statements get implicated.
 *
 *   $ ./fault_localization
 */

#include <iostream>
#include <set>

#include "benchmarks/registry.h"
#include "core/faultloc.h"
#include "core/scenario.h"
#include "verilog/printer.h"

int
main()
{
    using namespace cirfix;
    using namespace cirfix::verilog;

    const core::ProjectSpec &project = bench::getProject("counter");
    const core::DefectSpec &defect =
        bench::getDefect("counter_incorrect_reset");
    core::Scenario sc = core::buildScenario(project, defect);

    // Simulate the faulty design once to obtain S (the simulation
    // result the instrumented testbench records).
    core::EngineConfig config;
    core::RepairEngine engine = sc.makeEngine(config);
    core::Variant faulty = engine.evaluate(core::Patch{});

    std::cout << "fitness of the faulty design: "
              << faulty.fit.fitness << "\n\n";

    // get_output_mismatch(O, S): which outputs ever disagree?
    auto mismatch = core::outputMismatch(faulty.trace, sc.oracle);
    std::cout << "initial mismatch set:";
    for (auto &name : mismatch)
        std::cout << " " << name;
    std::cout << "\n";

    // Algorithm 2 fixed point over the DUT's AST.
    const Module *dut = sc.faulty->findModule(project.dutModule);
    core::FaultLocResult fl =
        core::faultLocalize(*dut, faulty.trace, sc.oracle);

    std::cout << "fixed point reached after " << fl.iterations
              << " iterations\n";
    // Sorted: the set's iteration order is not part of the result.
    std::cout << "final mismatch set:";
    for (auto &name : std::set<std::string>(fl.mismatchNames.begin(),
                                            fl.mismatchNames.end()))
        std::cout << " " << name;
    std::cout << "\nimplicated AST nodes: " << fl.nodeIds.size()
              << "\n\n";

    // Show the implicated statements as source text.
    std::cout << "---- implicated statements ----\n";
    visitAll(*const_cast<Module *>(dut), [&](Node &n) {
        if (n.kind != NodeKind::Assign || !fl.contains(n.id))
            return;
        std::cout << "node " << n.id << " (line " << n.line
                  << "): " << printStmt(*n.as<Assign>());
    });

    std::cout << "\n(These assignments and everything they "
                 "transitively control are where the repair\n"
                 "search concentrates its mutation operators.)\n";
    return 0;
}
