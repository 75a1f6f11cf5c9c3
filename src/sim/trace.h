#pragma once

/**
 * @file
 * Sampled simulation output: the data model of the paper's Figure 2.
 *
 * A Trace is a mapping Time -> Var -> {0,1,x,z}* recorded by the
 * instrumented testbench: one row per sampling instant (each rising
 * clock edge), one column per recorded output wire/register. The same
 * structure serves as the simulation result S and, when recorded from
 * a known-good design, as the expected-behavior oracle O.
 *
 * Copies share: a Trace is a reference-counted handle to one block of
 * column names and rows, so the fitness cache, the population, the
 * island store and snapshots all hold the same recorded trace. addRow
 * on a handle whose block is shared first gives that handle a private
 * copy (copy-on-write), so no other holder ever sees the change.
 */

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "sim/logic.h"
#include "sim/scheduler.h"

namespace cirfix::sim {

class Trace
{
  public:
    struct Row
    {
        SimTime time = 0;
        std::vector<LogicVec> values;
    };

    Trace() = default;
    explicit Trace(std::vector<std::string> vars);
    Trace(const Trace &o) noexcept;
    Trace(Trace &&o) noexcept : block_(o.block_) { o.block_ = nullptr; }
    Trace &operator=(const Trace &o) noexcept;
    Trace &operator=(Trace &&o) noexcept;
    ~Trace();

    const std::vector<std::string> &vars() const;
    const std::vector<Row> &rows() const;
    bool empty() const { return rows().empty(); }
    size_t size() const { return rows().size(); }

    /** Append a sample row (times must be non-decreasing). Unshares
     *  this handle's block first if another handle holds it. */
    void addRow(SimTime time, std::vector<LogicVec> values);

    /** Column index of @p var, or -1. */
    int varIndex(const std::string &var) const;

    /** Value of @p var at @p time if that row/column exists. */
    std::optional<LogicVec> at(SimTime time, const std::string &var) const;

    /** Row with the given timestamp, or nullptr. */
    const Row *rowAt(SimTime time) const;

    /** Total number of recorded bits (sum of widths over all rows). */
    uint64_t totalBits() const;

    /**
     * Serialize as CSV: header "time,var1,var2,..." then one line per
     * row with bit-string values (the Figure 2 format).
     */
    std::string toCsv() const;

    /** Parse the toCsv() format. Throws std::runtime_error on errors. */
    static Trace fromCsv(const std::string &text);

  private:
    struct Block
    {
        std::atomic<long> refs{1};
        std::vector<std::string> vars;
        std::vector<Row> rows;
    };

    /** The block, made private to this handle (addRow's only path). */
    Block &own();

    Block *block_ = nullptr;  //!< null: no columns, no rows
};

} // namespace cirfix::sim
