/**
 * @file
 * Determinism guarantees: identical seeds yield byte-identical
 * programs and event streams, and every parallel harness in the
 * repo (sweep engine, fuzz harness) produces output independent of
 * its job count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "driver/sweep_runner.hpp"
#include "program/program_builder.hpp"
#include "program/trace_io.hpp"
#include "testing/differential.hpp"
#include "testing/fuzz_harness.hpp"
#include "testing/invariant_sink.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

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
