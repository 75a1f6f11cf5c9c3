/**
 * @file
 * Tests for the sampled-trace data model and its CSV serialization
 * (the Figure 2 format).
 */

#include <gtest/gtest.h>

#include "sim/trace.h"

using namespace cirfix::sim;

namespace {

Trace
makeTrace()
{
    Trace t({"dut.q", "dut.flag"});
    t.addRow(5, {LogicVec::fromString("xxxx"), LogicVec::fromString("x")});
    t.addRow(15, {LogicVec::fromString("0000"), LogicVec::fromString("0")});
    t.addRow(25, {LogicVec::fromString("0001"), LogicVec::fromString("0")});
    t.addRow(35, {LogicVec::fromString("0010"), LogicVec::fromString("1")});
    return t;
}

TEST(Trace, BasicAccessors)
{
    Trace t = makeTrace();
    EXPECT_EQ(t.size(), 4u);
    EXPECT_FALSE(t.empty());
    EXPECT_EQ(t.varIndex("dut.q"), 0);
    EXPECT_EQ(t.varIndex("dut.flag"), 1);
    EXPECT_EQ(t.varIndex("missing"), -1);
}

TEST(Trace, RowLookupByTime)
{
    Trace t = makeTrace();
    ASSERT_NE(t.rowAt(25), nullptr);
    EXPECT_EQ(t.rowAt(25)->values[0].toString(), "0001");
    EXPECT_EQ(t.rowAt(26), nullptr);
    EXPECT_EQ(t.rowAt(0), nullptr);
    EXPECT_NE(t.rowAt(35), nullptr);
}

TEST(Trace, AtAccessor)
{
    Trace t = makeTrace();
    auto v = t.at(15, "dut.flag");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toString(), "0");
    EXPECT_FALSE(t.at(15, "missing").has_value());
    EXPECT_FALSE(t.at(16, "dut.q").has_value());
}

TEST(Trace, ResampleSameInstantKeepsLatest)
{
    Trace t({"a"});
    t.addRow(10, {LogicVec::fromString("0")});
    t.addRow(10, {LogicVec::fromString("1")});
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.rowAt(10)->values[0].toString(), "1");
}

TEST(Trace, TotalBits)
{
    Trace t = makeTrace();
    EXPECT_EQ(t.totalBits(), 4u * (4 + 1));
}

TEST(Trace, CsvRoundTrip)
{
    const Trace made = makeTrace();
    const Trace copied = made;
    for (const Trace *t : {&made, &copied}) {
        std::string csv = t->toCsv();
        EXPECT_EQ(csv.substr(0, 20), "time,dut.q,dut.flag\n");
        Trace back = Trace::fromCsv(csv);
        ASSERT_EQ(back.size(), t->size());
        ASSERT_EQ(back.vars(), t->vars());
        for (size_t i = 0; i < t->size(); ++i) {
            EXPECT_EQ(back.rows()[i].time, t->rows()[i].time);
            for (size_t v = 0; v < t->vars().size(); ++v)
                EXPECT_TRUE(back.rows()[i].values[v].identical(
                    t->rows()[i].values[v]));
        }
    }
}

TEST(Trace, CsvPreservesXZ)
{
    Trace t({"w"});
    t.addRow(1, {LogicVec::fromString("1x0z")});
    const Trace copied = t;
    const Trace *inputs[] = {&t, &copied};
    for (const Trace *src : inputs) {
        Trace back = Trace::fromCsv(src->toCsv());
        EXPECT_EQ(back.rows()[0].values[0].toString(), "1x0z");
    }
}

TEST(Trace, CsvErrors)
{
    EXPECT_THROW(Trace::fromCsv(""), std::runtime_error);
    EXPECT_THROW(Trace::fromCsv("bogus,a\n"), std::runtime_error);
    EXPECT_THROW(Trace::fromCsv("time,a\n5,01,11\n"),
                 std::runtime_error);
}

TEST(Trace, EmptyTraceCsv)
{
    const Trace t({"a", "b"});
    const Trace copied = t;
    for (const Trace *src : {&t, &copied}) {
        Trace back = Trace::fromCsv(src->toCsv());
        EXPECT_TRUE(back.empty());
        EXPECT_EQ(back.vars().size(), 2u);
    }
}

TEST(Trace, DefaultConstructedIsEmpty)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.vars().empty());
    EXPECT_TRUE(t.rows().empty());
    EXPECT_EQ(t.varIndex("a"), -1);
    EXPECT_EQ(t.rowAt(0), nullptr);
    EXPECT_FALSE(t.at(0, "a").has_value());
    EXPECT_EQ(t.totalBits(), 0u);
    EXPECT_EQ(t.toCsv(), "time\n");
    EXPECT_TRUE(Trace::fromCsv(t.toCsv()).empty());

    Trace copy = t;
    copy.addRow(3, {});
    EXPECT_EQ(copy.size(), 1u);
    EXPECT_TRUE(t.empty());

    Trace moved = std::move(copy);
    EXPECT_EQ(moved.size(), 1u);
    Trace assigned;
    assigned = moved;
    EXPECT_EQ(&assigned.rows(), &moved.rows());
    assigned = Trace();
    EXPECT_TRUE(assigned.empty());
    EXPECT_EQ(moved.size(), 1u);
}

TEST(Trace, CopySharesRowsWithItsSource)
{
    Trace t = makeTrace();
    Trace copy = t;
    EXPECT_EQ(&copy.rows(), &t.rows());
    EXPECT_EQ(&copy.vars(), &t.vars());
    Trace assigned({"other"});
    assigned = copy;
    EXPECT_EQ(&assigned.rows(), &t.rows());
    EXPECT_EQ(assigned.toCsv(), t.toCsv());
    const Trace equal = makeTrace();
    EXPECT_NE(&equal.rows(), &t.rows());  // equal, not shared
}

TEST(Trace, AddRowOnACopyLeavesTheOriginalUnchanged)
{
    const Trace original = makeTrace();
    const std::string before = original.toCsv();
    Trace copy = original;
    copy.addRow(45, {LogicVec::fromString("0011"),
                     LogicVec::fromString("1")});
    EXPECT_NE(&copy.rows(), &original.rows());
    EXPECT_EQ(original.size(), 4u);
    EXPECT_EQ(original.toCsv(), before);
    EXPECT_EQ(copy.size(), 5u);
    EXPECT_EQ(copy.vars(), original.vars());

    // Re-sampling the shared last instant replaces the copy's row
    // only.
    Trace resample = original;
    resample.addRow(35, {LogicVec::fromString("1111"),
                         LogicVec::fromString("0")});
    EXPECT_EQ(resample.rowAt(35)->values[0].toString(), "1111");
    EXPECT_EQ(original.rowAt(35)->values[0].toString(), "0010");
    EXPECT_EQ(original.toCsv(), before);
}

TEST(Trace, AddRowOnTheOriginalLeavesACopyUnchanged)
{
    Trace original = makeTrace();
    const Trace copy = original;
    const std::string before = copy.toCsv();
    original.addRow(45, {LogicVec::fromString("0011"),
                         LogicVec::fromString("1")});
    original.addRow(45, {LogicVec::fromString("0100"),
                         LogicVec::fromString("1")});
    EXPECT_EQ(copy.size(), 4u);
    EXPECT_EQ(copy.toCsv(), before);
    EXPECT_EQ(original.size(), 5u);
    EXPECT_EQ(original.rowAt(45)->values[0].toString(), "0100");

    // Once the other holder is gone, appends go to the block in place.
    Trace sole = makeTrace();
    const std::vector<Trace::Row> *rows = &sole.rows();
    {
        Trace gone = sole;
    }
    sole.addRow(45, {LogicVec::fromString("0011"),
                     LogicVec::fromString("1")});
    EXPECT_EQ(&sole.rows(), rows);
}

} // namespace
