/**
 * @file
 * The paper protocol (bench/common.h) over all 32 defects, one case
 * per defect. Each case's Table 3 row must be the row EXPERIMENTS.md
 * records, and its outcome must be the pinned one below; the recorded
 * block's header and summary must be what `experiments table3` prints
 * for the pinned outcomes. So a lost (or new) repair fails here, and
 * so does a doc that drifts from the program.
 */

#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common.h"

using namespace cirfix;
using namespace cirfix::bench;

namespace {

// The pinned outcomes: every defect not named here is repaired
// correctly (passes the held-out verification bench).
const std::set<std::string> kPlausibleOnly = {
    "fsm_case_statement", "i2c_address_assignment", "tate_shift_logic",
    "rs_register_size",
};
const std::set<std::string> kNoRepair = {
    "decoder_incorrect_assignment", "mux_1bit_output", "sha3_negation",
    "sha3_wire_assign", "tate_shift_operator", "tate_instantiation",
    "sdram_numeric_definitions", "sdram_case_statement",
};

ScenarioOutcome
pinnedOutcome(const core::DefectSpec &d)
{
    ScenarioOutcome o;
    o.defect = &d;
    o.plausible = kNoRepair.count(d.id) == 0;
    o.correct = o.plausible && kPlausibleOnly.count(d.id) == 0;
    return o;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** EXPERIMENTS.md's Table 3 block: header, one row per defect, then
 *  the summary. Empty rows when the header is missing. */
struct RecordedTable3
{
    std::vector<std::string> rows;  //!< each with its '\n'
    std::string rest;               //!< everything after the rows
};

const RecordedTable3 &
recorded()
{
    static const RecordedTable3 table = [] {
        RecordedTable3 t;
        std::string doc = readFile(CIRFIX_EXPERIMENTS_MD);
        size_t at = doc.find(table3Header());
        if (at == std::string::npos)
            return t;
        at += table3Header().size();
        for (size_t i = 0; i < allDefects().size(); ++i) {
            size_t nl = doc.find('\n', at);
            if (nl == std::string::npos)
                return t;
            t.rows.push_back(doc.substr(at, nl + 1 - at));
            at = nl + 1;
        }
        t.rest = doc.substr(at);
        return t;
    }();
    return table;
}

TEST(PaperTable3, PinnedSetsGiveTheRecordedSplit)
{
    int plausible = 0, correct = 0, repaired[3] = {0, 0, 0};
    std::vector<ScenarioOutcome> pinned;
    for (const core::DefectSpec &d : allDefects()) {
        pinned.push_back(pinnedOutcome(d));
        plausible += pinned.back().plausible;
        correct += pinned.back().correct;
        repaired[d.category] += pinned.back().plausible;
    }
    EXPECT_EQ(plausible, 24);
    EXPECT_EQ(correct, 20);
    EXPECT_EQ(repaired[1], 15);
    EXPECT_EQ(repaired[2], 9);
    for (const std::string &id : kPlausibleOnly)
        EXPECT_NO_THROW(getDefect(id));
    for (const std::string &id : kNoRepair)
        EXPECT_NO_THROW(getDefect(id));

    const RecordedTable3 &doc = recorded();
    ASSERT_EQ(doc.rows.size(), allDefects().size())
        << "EXPERIMENTS.md has no Table 3 block headed\n"
        << table3Header();
    std::string summary = table3Summary(pinned);
    EXPECT_EQ(doc.rest.substr(0, summary.size()), summary);
}

class PaperProtocol : public ::testing::TestWithParam<size_t>
{
};

TEST_P(PaperProtocol, RowMatchesTheRecordedTable3)
{
    const core::DefectSpec &d = allDefects()[GetParam()];
    ScenarioOutcome o = runScenario(d, protocolConfig());
    EXPECT_STREQ(outcomeName(o), outcomeName(pinnedOutcome(d)));
    const RecordedTable3 &doc = recorded();
    ASSERT_EQ(doc.rows.size(), allDefects().size());
    EXPECT_EQ(table3Row(o), doc.rows[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    AllDefects, PaperProtocol,
    ::testing::Range<size_t>(0, allDefects().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return allDefects()[info.param].id;
    });

} // namespace
