/**
 * @file
 * Determinism guarantees: identical seeds yield byte-identical
 * programs and event streams, and every parallel harness in the
 * repo (sweep engine, fuzz harness) produces output independent of
 * its job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/sweep_runner.hpp"
#include "program/program_builder.hpp"
#include "program/trace_io.hpp"
#include "service/tenant_spec.hpp"
#include "testing/differential.hpp"
#include "testing/fuzz_harness.hpp"
#include "testing/invariant_sink.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

using testing::fnvByte;
using testing::fnvEvent;
using testing::fnvOffset;
using testing::FuzzOptions;
using testing::FuzzSummary;
using testing::GenSpec;
using testing::generateProgram;
using testing::resultFingerprint;
using testing::runFuzz;

/** Hash the (id, taken) stream of up to `events` executor events. */
std::uint64_t
streamHashOf(const Program &prog, std::uint64_t seed,
             std::uint64_t events)
{
    class Hash : public ExecutionSink
    {
      public:
        bool
        onEvent(const ExecEvent &ev) override
        {
            h = fnvEvent(h, ev.block->id(), ev.takenBranch);
            return true;
        }
        std::uint64_t h = fnvOffset;
    };
    Hash sink;
    Executor exec(prog, seed);
    exec.run(events, sink);
    return sink.h;
}

/** Fold one event's block id, taken flag and branch address. */
std::uint64_t
fnvFullEvent(std::uint64_t h, BlockId id, bool taken, Addr branchAddr)
{
    h = fnvEvent(h, id, taken);
    for (int shift = 0; shift < 64; shift += 8)
        h = fnvByte(h, static_cast<std::uint8_t>(branchAddr >> shift));
    return h;
}

/** fnvFullEvent over up to `events` events delivered by run(). */
std::uint64_t
runStreamHash(const Program &prog, std::uint64_t seed,
              std::uint64_t events)
{
    class Hash : public ExecutionSink
    {
      public:
        bool
        onEvent(const ExecEvent &ev) override
        {
            h = fnvFullEvent(h, ev.block->id(), ev.takenBranch,
                             ev.branchAddr);
            return true;
        }
        std::uint64_t h = fnvOffset;
    };
    Hash sink;
    Executor exec(prog, seed);
    exec.run(events, sink);
    return sink.h;
}

/** fnvFullEvent over up to `events` events filled `batchSize` at a
 *  time by fillBatch(). */
std::uint64_t
batchStreamHash(const Program &prog, std::uint64_t seed,
                std::uint64_t events, std::size_t batchSize)
{
    Executor exec(prog, seed);
    EventBatch batch;
    std::uint64_t h = fnvOffset;
    while (events != 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(events, batchSize));
        const std::size_t got = exec.fillBatch(batch, want);
        for (std::size_t i = 0; i < got; ++i)
            h = fnvFullEvent(h, batch.blockIds[i],
                             batch.takenFlags[i] != 0,
                             batch.branchAddrs[i]);
        events -= got;
        if (got < want)
            break;
    }
    return h;
}

/**
 * A SimResult whose fingerprinted fields all differ, so a field
 * printed under the wrong name or dropped shows in the text. One
 * counter is UINT64_MAX, the widest number the text can hold.
 */
SimResult
distinctResult()
{
    SimResult r;
    r.selector = "LEI+comb";
    r.workload = "not-fingerprinted";
    r.events = 18446744073709551615ull;
    r.totalInsts = 2;
    r.cachedInsts = 3;
    r.interpretedInsts = 4;
    r.regionCount = 5;
    r.expansionInsts = 6;
    r.expansionBytes = 7;
    r.exitStubs = 8;
    r.estimatedCacheBytes = 9;
    r.icacheAccesses = 10;
    r.icacheMisses = 0;
    r.cacheCapacityBytes = 12;
    r.cacheEvictions = 13;
    r.cacheFlushes = 14;
    r.cacheRegenerations = 15;
    r.cacheLiveBytes = 16;
    r.regionTransitions = 17;
    r.interRegionLinks = 18;
    r.regionExecutions = 19;
    r.cycleTerminations = 20;
    r.spanningRegions = 21;
    r.coverSet90 = 4294967295u;
    r.coverSetSaturated = true;
    r.maxLiveCounters = 23;
    r.peakObservedTraceBytes = 24;
    r.markSweepRegions = 25;
    r.markSweepMultiIterRegions = 26;
    r.exitDominatedRegions = 27;
    r.exitDominatedDupInsts = 28;
    r.duplicatedInsts = 29;
    r.regionsWithInternalCycle = 30;
    r.licmCapableRegions = 31;
    r.dualSplitRegions = 32;
    r.joinBlocksTotal = 33;
    r.recovery.faultsInjected = 34;
    r.recovery.translationFailures = 35;
    r.recovery.blockInvalidations = 36;
    r.recovery.regionsInvalidated = 37;
    r.recovery.flushStorms = 38;
    r.recovery.selectorResets = 39;
    r.recovery.retries = 40;
    r.recovery.backoffSuppressed = 41;
    r.recovery.blacklistSuppressed = 42;
    r.recovery.blacklistedEntrances = 43;
    r.recovery.retranslations = 44;
    RegionStats trace;
    trace.id = 45;
    trace.kind = Region::Kind::Trace;
    trace.entryAddr = 0x1000;
    trace.blockCount = 46;
    trace.instCount = 47;
    trace.byteSize = 48;
    trace.exitStubs = 49;
    trace.spansCycle = true;
    trace.executedInsts = 50;
    trace.executions = 51;
    trace.cycleEnds = 52;
    RegionStats multi = trace;
    multi.id = 4294967295u;
    multi.kind = Region::Kind::MultiPath;
    multi.blockCount = 53;
    multi.instCount = 54;
    multi.byteSize = 55;
    multi.exitStubs = 56;
    multi.spansCycle = false;
    multi.executedInsts = 57;
    multi.executions = 58;
    multi.cycleEnds = 18446744073709551614ull;
    r.regions = {trace, multi};
    return r;
}

TEST(DeterminismTest, ResultFingerprintTextIsPinned)
{
    // rsbench's goldens and every service == solo check compare
    // fingerprints, so their text is a format: this pins it.
    const std::string expected =
        "selector=LEI+comb\n"
        "events=18446744073709551615\n"
        "totalInsts=2\n"
        "cachedInsts=3\n"
        "interpretedInsts=4\n"
        "regionCount=5\n"
        "expansionInsts=6\n"
        "expansionBytes=7\n"
        "exitStubs=8\n"
        "estimatedCacheBytes=9\n"
        "icacheAccesses=10\n"
        "icacheMisses=0\n"
        "cacheCapacityBytes=12\n"
        "cacheEvictions=13\n"
        "cacheFlushes=14\n"
        "cacheRegenerations=15\n"
        "cacheLiveBytes=16\n"
        "regionTransitions=17\n"
        "interRegionLinks=18\n"
        "regionExecutions=19\n"
        "cycleTerminations=20\n"
        "spanningRegions=21\n"
        "coverSet90=4294967295\n"
        "coverSetSaturated=1\n"
        "maxLiveCounters=23\n"
        "peakObservedTraceBytes=24\n"
        "markSweepRegions=25\n"
        "markSweepMultiIterRegions=26\n"
        "exitDominatedRegions=27\n"
        "exitDominatedDupInsts=28\n"
        "duplicatedInsts=29\n"
        "regionsWithInternalCycle=30\n"
        "licmCapableRegions=31\n"
        "dualSplitRegions=32\n"
        "joinBlocksTotal=33\n"
        "faultsInjected=34\n"
        "translationFailures=35\n"
        "blockInvalidations=36\n"
        "regionsInvalidated=37\n"
        "flushStorms=38\n"
        "selectorResets=39\n"
        "retries=40\n"
        "backoffSuppressed=41\n"
        "blacklistSuppressed=42\n"
        "blacklistedEntrances=43\n"
        "retranslations=44\n"
        "region45=T,46,47,48,49,1,50,51,52\n"
        "region4294967295=M,53,54,55,56,0,57,58,18446744073709551614\n";
    SimResult r = distinctResult();
    EXPECT_EQ(resultFingerprint(r), expected);

    // The other value of each bool.
    r.coverSetSaturated = false;
    std::swap(r.regions[0].spansCycle, r.regions[1].spansCycle);
    std::string flipped = expected;
    const auto flip = [&](const std::string &from, const std::string &to) {
        const std::size_t at = flipped.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        flipped.replace(at, from.size(), to);
    };
    flip("coverSetSaturated=1\n", "coverSetSaturated=0\n");
    flip("region45=T,46,47,48,49,1,", "region45=T,46,47,48,49,0,");
    flip(",56,0,", ",56,1,");
    EXPECT_EQ(resultFingerprint(r), flipped);
}

TEST(DeterminismTest, SaveProgramIsByteIdenticalAcrossBuilds)
{
    // Workload builders and the fuzz generator must both be pure
    // functions of their seeds.
    for (const WorkloadInfo &w : workloadSuite()) {
        std::ostringstream a, b;
        saveProgram(w.build(42), a);
        saveProgram(w.build(42), b);
        EXPECT_EQ(a.str(), b.str()) << w.name;
    }
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const GenSpec spec = GenSpec::fromSeed(seed);
        std::ostringstream a, b;
        saveProgram(generateProgram(spec), a);
        saveProgram(generateProgram(spec), b);
        EXPECT_EQ(a.str(), b.str()) << "fuzz seed " << seed;
    }
}

TEST(DeterminismTest, ExecutorStreamIsSeedDeterministic)
{
    // An unbiased conditional inside a long-running loop: the
    // executor's RNG provably shapes the stream on every iteration
    // (a loop-only program would be branch-deterministic and make
    // this test vacuous).
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId b0 = b.block(2);
    const BlockId b1 = b.block(3);
    const BlockId b2 = b.block(2);
    const BlockId b3 = b.block(1);
    b.condTo(b0, b2, CondBehavior::bernoulli(0.5));
    b.loopTo(b2, b0, 1'000'000'000, 1'000'000'000);
    b.halt(b3);
    b.setEntry(b0);
    (void)b1;
    const Program prog = b.build();
    const std::uint64_t h1 = streamHashOf(prog, 99, 20'000);
    const std::uint64_t h2 = streamHashOf(prog, 99, 20'000);
    EXPECT_EQ(h1, h2);
    // A different executor seed must (overwhelmingly) change the
    // stream — otherwise the hash is vacuous.
    const std::uint64_t h3 = streamHashOf(prog, 100, 20'000);
    EXPECT_NE(h1, h3);
}

TEST(DeterminismTest, ExecutorStreamsArePinned)
{
    // The Executor's streams, recorded before its per-block step
    // records and phase chunks replaced the per-event BasicBlock
    // walk: every event's block id, taken flag and branch address,
    // through run() and through fillBatch at three batch sizes. The
    // suite runs build seed 42 at executor seed 7; the seeded tenants
    // (phased and indirect guests among them) at their own seeds.
    static const std::pair<const char *, std::uint64_t> suite[] = {
        {"gzip", 0xf4bc75275b55f4a3ull},
        {"vpr", 0xee4385ba39c1c9d0ull},
        {"gcc", 0x805cf176c30d2c12ull},
        {"mcf", 0xd6089c4b662e509cull},
        {"crafty", 0x6e2dfd8736f82edbull},
        {"parser", 0x4366f3251d7234beull},
        {"eon", 0x9a2f7726ddece81eull},
        {"perlbmk", 0xeb9d3a0f796269d1ull},
        {"gap", 0x5350b397d24163baull},
        {"vortex", 0xa729684cad745827ull},
        {"bzip2", 0x9bab1330d5f056d1ull},
        {"twolf", 0xac0263e556e929caull},
    };
    static const std::uint64_t tenants[64] = {
        0x46f0e10cbc4b61e5ull, 0x99d7c14c2b504742ull,
        0x3f31f9b858215652ull, 0xd24ba73f1f0060c7ull,
        0x82a26718762442d6ull, 0x9a8768fe74f1ad63ull,
        0xb2fc279c530074f6ull, 0xbd1d22f19b4fe9c5ull,
        0x2fa31d2373595fbcull, 0xa6ca934fee14f932ull,
        0xc5bf4e6e8c2a52a1ull, 0xdcc1930544b17d8bull,
        0xdaa8da725bf2520eull, 0x7c9880729c2a1acbull,
        0x390ebe8e406c564bull, 0x7eedf241ee14aaf1ull,
        0x4cdbea89949604faull, 0xeb245c59074dd438ull,
        0xc75b5f405cee86d0ull, 0x09d020ab62aa165bull,
        0x52a67f617af8c2fbull, 0xfb37619eb19fa493ull,
        0x178b3a9ead683a8dull, 0xfe936584dc362fdcull,
        0xa2aafa8be72580c6ull, 0x9939f109a8cf74f0ull,
        0x8ad9d5d1fa4939aeull, 0x2766bb308ef68adbull,
        0x6a14937e4b3e233bull, 0x053bdf7ec5cc2c83ull,
        0xef760989e77df824ull, 0x4e35fc97508b21a4ull,
        0xef76d090106edbc4ull, 0xce1d52296f61cf4eull,
        0x0dee6281532fdf15ull, 0x5b653c92da9dc4fcull,
        0x645baefa9f02f716ull, 0x8a71bb8390032becull,
        0x5fc3b9ebf65dd6b3ull, 0x3ded5c1734d8c89aull,
        0xd72cf653c2ee9da9ull, 0x390ebe8e406c564bull,
        0xe61014f81c106b00ull, 0x8a45eb9874325e3bull,
        0xd0c52f9fa8fe66ebull, 0x125ebd409f26fefbull,
        0x8707460b9c6ed345ull, 0x12301b171050b302ull,
        0xb4dc56f47ae2e6f1ull, 0x793fe54ac8441c2cull,
        0xc1a9bea7c009c5a3ull, 0x5d5f1a48e09e9ab5ull,
        0x1e3ba3717220b8bcull, 0x7cfceb1093f59d2full,
        0x89662761e828dad9ull, 0x9d384f807db670feull,
        0x4c1775035cf3a28eull, 0x4a190b68d0ffbe42ull,
        0x45bb64344a785884ull, 0x101eedaa6e5a6d33ull,
        0x6a112bae106a32fdull, 0x98c20b7164f09d08ull,
        0x2ea0ea567c614992ull, 0x8c1f00ba2b341bfaull,
    };
    const auto check = [](const Program &prog, std::uint64_t seed,
                          std::uint64_t events, std::uint64_t pinned,
                          const std::string &what) {
        EXPECT_EQ(runStreamHash(prog, seed, events), pinned)
            << what << " run()";
        for (const std::size_t size : {1u, 509u, 4096u})
            EXPECT_EQ(batchStreamHash(prog, seed, events, size), pinned)
                << what << " fillBatch at " << size;
    };
    for (const auto &[name, pinned] : suite)
        check(findWorkload(name)->build(42), 7, 100'000, pinned, name);
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const service::TenantSpec spec =
            service::TenantSpec::fromSeed(seed);
        check(generateProgram(spec.program), spec.program.execSeed,
              16'000, tenants[seed - 1], spec.name);
    }
}

TEST(DeterminismTest, SweepResultsIdenticalAcrossJobCounts)
{
    std::vector<const WorkloadInfo *> workloads;
    for (const WorkloadInfo &w : workloadSuite()) {
        workloads.push_back(&w);
        if (workloads.size() == 2)
            break;
    }
    std::vector<Algorithm> algos(std::begin(allSelectors),
                                 std::end(allSelectors));
    SimOptions base;
    base.maxEvents = 20'000;
    base.seed = 7;
    const std::vector<SweepCell> cells =
        SweepRunner::makeGrid(workloads, algos, base, 42);

    const std::vector<SimResult> serial = SweepRunner(1).run(cells);
    const std::vector<SimResult> parallel = SweepRunner(8).run(cells);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(resultFingerprint(serial[i]),
                  resultFingerprint(parallel[i]))
            << "cell " << i;
}

TEST(DeterminismTest, FuzzSummaryIdenticalAcrossJobCounts)
{
    FuzzOptions opts;
    opts.seeds = 6;
    opts.startSeed = 1;
    opts.events = 3'000;
    opts.shrink = false;

    opts.jobs = 1;
    const FuzzSummary serial = runFuzz(opts);
    opts.jobs = 8;
    const FuzzSummary parallel = runFuzz(opts);

    EXPECT_EQ(serial.seedsRun, parallel.seedsRun);
    EXPECT_EQ(serial.failures, parallel.failures);
    ASSERT_EQ(serial.detail.size(), parallel.detail.size());
    for (std::size_t i = 0; i < serial.detail.size(); ++i) {
        EXPECT_EQ(serial.detail[i].seed, parallel.detail[i].seed);
        EXPECT_EQ(serial.detail[i].error, parallel.detail[i].error);
    }
}

} // namespace
} // namespace rsel
