/**
 * @file
 * Tests for the synthetic SPEC-like workload suite: registry,
 * determinism, executability, and per-workload character.
 */

#include <gtest/gtest.h>

#include "program/executor.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

TEST(WorkloadRegistryTest, SuiteHasTwelveNamedWorkloads)
{
    const auto &suite = workloadSuite();
    ASSERT_EQ(suite.size(), 12u);
    const char *expected[] = {"gzip", "vpr",     "gcc",  "mcf",
                              "crafty", "parser", "eon",  "perlbmk",
                              "gap",  "vortex",  "bzip2", "twolf"};
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, expected[i]);
        EXPECT_FALSE(suite[i].description.empty());
        EXPECT_NE(suite[i].build, nullptr);
        EXPECT_GT(suite[i].defaultEvents, 100'000u);
    }
}

TEST(WorkloadRegistryTest, FindByName)
{
    EXPECT_NE(findWorkload("gcc"), nullptr);
    EXPECT_EQ(findWorkload("gcc")->name, "gcc");
    EXPECT_EQ(findWorkload("notabench"), nullptr);
}

/** Counting sink for executability checks. */
class CountSink : public ExecutionSink
{
  public:
    bool
    onEvent(const ExecEvent &ev) override
    {
        ++events;
        takenBranches += ev.takenBranch ? 1 : 0;
        return true;
    }
    std::uint64_t events = 0;
    std::uint64_t takenBranches = 0;
};

class WorkloadSuiteTest
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadSuiteTest, BuildsDeterministically)
{
    const WorkloadInfo *info = findWorkload(GetParam());
    ASSERT_NE(info, nullptr);
    Program a = info->build(42);
    Program b = info->build(42);
    ASSERT_EQ(a.blocks().size(), b.blocks().size());
    for (std::size_t i = 0; i < a.blocks().size(); ++i) {
        EXPECT_EQ(a.blocks()[i].startAddr(), b.blocks()[i].startAddr());
        EXPECT_EQ(a.blocks()[i].sizeBytes(), b.blocks()[i].sizeBytes());
        EXPECT_EQ(a.blocks()[i].terminator(), b.blocks()[i].terminator());
    }
    EXPECT_EQ(a.functions().size(), b.functions().size());
}

TEST_P(WorkloadSuiteTest, EntryIsMain)
{
    const WorkloadInfo *info = findWorkload(GetParam());
    Program p = info->build(42);
    const BasicBlock &entry = p.block(p.entry());
    EXPECT_EQ(p.function(entry.func()).name, "main");
}

TEST_P(WorkloadSuiteTest, RunsWithoutHalting)
{
    const WorkloadInfo *info = findWorkload(GetParam());
    Program p = info->build(42);
    Executor exec(p, 7);
    CountSink sink;
    const std::uint64_t n = exec.run(50'000, sink);
    // Workloads loop forever; the budget must be the limiter.
    EXPECT_EQ(n, 50'000u);
    EXPECT_FALSE(exec.finished());
    // A realistic taken-branch density (the paper's systems act on
    // taken branches): between 15% and 85% of block transitions —
    // the top end is call/return-heavy OO code (eon).
    const double takenRatio =
        static_cast<double>(sink.takenBranches) / sink.events;
    EXPECT_GT(takenRatio, 0.15) << GetParam();
    EXPECT_LT(takenRatio, 0.85) << GetParam();
}

TEST_P(WorkloadSuiteTest, ExecutionIsSeedDeterministic)
{
    const WorkloadInfo *info = findWorkload(GetParam());
    Program p = info->build(42);

    class FirstBlocks : public ExecutionSink
    {
      public:
        bool
        onEvent(const ExecEvent &ev) override
        {
            ids.push_back(ev.block->id());
            return true;
        }
        std::vector<BlockId> ids;
    };

    Executor e1(p, 99), e2(p, 99), e3(p, 100);
    FirstBlocks s1, s2, s3;
    e1.run(20'000, s1);
    e2.run(20'000, s2);
    e3.run(20'000, s3);
    EXPECT_EQ(s1.ids, s2.ids);
    EXPECT_NE(s1.ids, s3.ids); // different seed diverges
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSuiteTest,
    ::testing::Values("gzip", "vpr", "gcc", "mcf", "crafty", "parser",
                      "eon", "perlbmk", "gap", "vortex", "bzip2",
                      "twolf"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(WorkloadCharacterTest, GccHasTheLargestStaticFootprint)
{
    // gcc models "many important procedures": it must dwarf the
    // loop-dominated workloads statically.
    Program gcc = buildGcc(42);
    Program gzip = buildGzip(42);
    Program mcf = buildMcf(42);
    EXPECT_GT(gcc.blocks().size(), 3 * gzip.blocks().size());
    EXPECT_GT(gcc.blocks().size(), 3 * mcf.blocks().size());
    EXPECT_GT(gcc.functions().size(), 30u);
}

TEST(WorkloadCharacterTest, EonHasSharedTinyCallees)
{
    // The constructor functions must be tiny (single return block)
    // and called from many sites.
    Program eon = buildEon(42);
    int tinyFuncs = 0;
    for (const Function &f : eon.functions()) {
        if (f.lastBlock - f.firstBlock == 1 &&
            eon.block(f.entry).terminator() == BranchKind::Return) {
            ++tinyFuncs;
        }
    }
    EXPECT_GE(tinyFuncs, 3);

    // Count static call sites targeting those tiny callees.
    int sitesToTiny = 0;
    for (const BasicBlock &b : eon.blocks()) {
        if (b.terminator() != BranchKind::Call)
            continue;
        const BasicBlock *target = eon.blockAtAddr(b.takenTarget());
        ASSERT_NE(target, nullptr);
        const Function &f = eon.function(target->func());
        if (f.lastBlock - f.firstBlock == 1)
            ++sitesToTiny;
    }
    EXPECT_GE(sitesToTiny, 8);
}

TEST(WorkloadCharacterTest, PhasedWorkloadsDeclareSchedules)
{
    EXPECT_FALSE(buildVpr(42).phaseLengths().empty());
    EXPECT_FALSE(buildGcc(42).phaseLengths().empty());
    EXPECT_FALSE(buildVortex(42).phaseLengths().empty());
    EXPECT_TRUE(buildGzip(42).phaseLengths().empty());
}

} // namespace
} // namespace rsel
