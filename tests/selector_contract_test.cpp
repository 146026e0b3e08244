/**
 * @file
 * Cross-cutting contract tests: every shipped selection algorithm,
 * run over several workloads, must satisfy the structural and
 * accounting invariants of the framework. Parameterized over the
 * (algorithm x workload) cross product.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "dynopt/dynopt_system.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

using Param = std::tuple<Algorithm, const char *>;

class SelectorContractTest : public ::testing::TestWithParam<Param>
{};

TEST_P(SelectorContractTest, StructuralInvariantsHold)
{
    const auto [algo, workloadName] = GetParam();
    const WorkloadInfo *w = findWorkload(workloadName);
    ASSERT_NE(w, nullptr);

    Program prog = w->build(42);
    DynOptSystem system(prog);
    switch (algo) {
      case Algorithm::Net: system.useNet(); break;
      case Algorithm::Lei: system.useLei(); break;
      case Algorithm::NetCombined: {
        NetConfig cfg;
        cfg.combine = true;
        system.useNet(cfg);
        break;
      }
      case Algorithm::LeiCombined: {
        LeiConfig cfg;
        cfg.combine = true;
        system.useLei(cfg);
        break;
      }
      case Algorithm::Mojo: system.useNet(NetConfig::mojo()); break;
      case Algorithm::Boa: system.useBoa(); break;
      case Algorithm::Wrs: system.useWrs(); break;
    }

    Executor exec(prog, 11);
    exec.run(250'000, system);

    // Invariants over the final cache, before finish().
    const CodeCache &cache = system.cache();
    std::set<Addr> entries;
    for (const Region &r : cache.regions()) {
        // Region entries are unique among live regions.
        if (cache.isLive(r.id())) {
            EXPECT_TRUE(entries.insert(r.entryAddr()).second);
        }
        // No region contains the same block twice.
        std::set<BlockId> blocks;
        for (const BasicBlock *b : r.blocks())
            EXPECT_TRUE(blocks.insert(b->id()).second)
                << "duplicate block in region " << r.id();
        // Every block belongs to the program.
        for (const BasicBlock *b : r.blocks())
            EXPECT_EQ(prog.blockAtAddr(b->startAddr()), b);
        // The lookup index agrees with the region set.
        if (cache.isLive(r.id())) {
            EXPECT_EQ(cache.lookupEntry(r.entryBlock().id()), &r);
        }
        // Footprint arithmetic is internally consistent.
        std::uint64_t insts = 0, bytes = 0;
        for (const BasicBlock *b : r.blocks()) {
            insts += b->instCount();
            bytes += b->sizeBytes();
        }
        EXPECT_EQ(insts, r.instCount());
        EXPECT_EQ(bytes, r.byteSize());
    }

    SimResult r = system.finish();
    EXPECT_EQ(r.totalInsts, r.cachedInsts + r.interpretedInsts);
    EXPECT_LE(r.coverSet90, r.regionCount);
    EXPECT_LE(r.cycleTerminations, r.regionExecutions);
    EXPECT_LE(r.icacheMisses, r.icacheAccesses);
    EXPECT_LE(r.licmCapableRegions, r.regionsWithInternalCycle);
    EXPECT_LE(r.spanningRegions, r.regionCount);
    // Something must have been cached and executed on every one of
    // these workloads within the budget.
    EXPECT_GE(r.regionCount, 1u);
    EXPECT_GT(r.cachedInsts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CrossProduct, SelectorContractTest,
    ::testing::Combine(::testing::Values(Algorithm::Net,
                                         Algorithm::Lei,
                                         Algorithm::NetCombined,
                                         Algorithm::LeiCombined,
                                         Algorithm::Mojo,
                                         Algorithm::Boa,
                                         Algorithm::Wrs),
                       ::testing::Values("gzip", "gcc", "eon",
                                         "perlbmk", "twolf")),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name = algorithmName(std::get<0>(info.param)) +
                           "_" + std::get<1>(info.param);
        for (char &c : name)
            if (c == '+')
                c = 'x';
        return name;
    });

} // namespace
} // namespace rsel
