#include "core/bruteforce.h"

#include <algorithm>
#include <chrono>
#include <random>

#include "core/fixloc.h"
#include "core/templates.h"

namespace cirfix::core {

using namespace verilog;

BruteForceResult
bruteForceRepair(RepairEngine &engine, const SourceFile &faulty,
                 const std::string &dut_module, long max_candidates,
                 uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    BruteForceResult result;
    const Module *dut = faulty.findModule(dut_module);
    if (!dut)
        return result;

    std::mt19937_64 rng(seed);

    // Enumerate the uniform single-edit space: no fault localization,
    // so every site in the module is a candidate.
    std::vector<Patch> candidates;
    for (const TemplateSite &site :
         enumerateTemplateSites(*dut, nullptr)) {
        Patch p;
        Edit e;
        e.kind = EditKind::Template;
        e.tmpl = site.kind;
        e.target = site.target;
        e.param = site.param;
        p.edits.push_back(std::move(e));
        candidates.push_back(std::move(p));
    }
    std::vector<StmtSlotInfo> slots = collectStmtSlots(*dut);
    for (const StmtSlotInfo &slot : slots) {
        Patch p;
        Edit e;
        e.kind = EditKind::Delete;
        e.target = slot.id;
        p.edits.push_back(std::move(e));
        candidates.push_back(std::move(p));
    }
    // Replace/insert pairs: every (target, donor) combination.
    for (const StmtSlotInfo &target : slots) {
        for (const StmtSlotInfo &donor : slots) {
            if (donor.id == target.id)
                continue;
            Node *dn =
                findNode(const_cast<SourceFile &>(faulty), donor.id);
            if (!dn)
                continue;
            {
                Patch p;
                Edit e;
                e.kind = EditKind::Replace;
                e.target = target.id;
                e.code = static_cast<Stmt *>(dn)->cloneStmt();
                p.edits.push_back(std::move(e));
                candidates.push_back(std::move(p));
            }
            if (target.inBlock) {
                Patch p;
                Edit e;
                e.kind = EditKind::InsertAfter;
                e.target = target.id;
                e.code = static_cast<Stmt *>(dn)->cloneStmt();
                p.edits.push_back(std::move(e));
                candidates.push_back(std::move(p));
            }
        }
    }

    std::shuffle(candidates.begin(), candidates.end(), rng);

    for (const Patch &p : candidates) {
        if (result.candidatesTried >= max_candidates)
            break;
        ++result.candidatesTried;
        Variant v = engine.evaluate(p);
        if (v.valid && v.fit.plausible()) {
            result.found = true;
            result.patch = p;
            break;
        }
    }
    result.seconds = elapsed();
    return result;
}

} // namespace cirfix::core
