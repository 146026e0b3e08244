/**
 * @file
 * Tests for the parallel sweep engine: thread-pool mechanics, grid
 * construction, seed policy, result merging, and the determinism
 * contract (parallel results identical to serial).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "driver/sweep_runner.hpp"
#include "driver/thread_pool.hpp"
#include "support/error.hpp"

namespace rsel {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAndIdleWaitReturns)
{
    ThreadPool pool(2);
    pool.wait(); // no tasks: must not hang
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait();
        EXPECT_EQ(counter.load(), 10 * (round + 1));
    }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&counter] { ++counter; });
        // No wait(): the destructor must still run everything.
    }
    EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, HardwareWorkersIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1u);
}

TEST(ThreadPoolTest, TaskExceptionRethrownFromWait)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    try {
        pool.wait();
        FAIL() << "expected the task exception from wait()";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(ThreadPoolTest, ThrowCancelsPendingTasks)
{
    // One worker so ordering is deterministic: the first task blocks
    // until every submit below has landed in the queue, then throws;
    // none of the queued successors may run.
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::atomic<int> ran{0};
    pool.submit([opened] {
        opened.wait();
        throw std::runtime_error("first");
    });
    for (int i = 0; i < 50; ++i)
        pool.submit([&ran] { ++ran; });
    gate.set_value();
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, PoolIsReusableAfterRethrow)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: later rounds run clean.
    std::atomic<int> counter{0};
    for (int i = 0; i < 25; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 25);
}

TEST(ThreadPoolTest, DestructorDiscardsUncollectedException)
{
    // A pool destroyed without wait() after a task threw must not
    // rethrow from the destructor (that would terminate).
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("dropped"); });
}

TEST(ForEachIndexTest, RunsEveryIndexOnceWithOrWithoutAPool)
{
    std::vector<std::size_t> order;
    forEachIndex(nullptr, 5, [&order](std::size_t i) {
        order.push_back(i);
    });
    // No pool: inline, in index order.
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

    ThreadPool pool(4);
    std::vector<int> hits(1000, 0);
    forEachIndex(&pool, hits.size(),
                 [&hits](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1000);
    // Fewer indices than workers, and none at all.
    forEachIndex(&pool, 2, [&hits](std::size_t i) { ++hits[i]; });
    forEachIndex(&pool, 0, [](std::size_t) { FAIL(); });
    EXPECT_EQ(hits[0], 2);
    EXPECT_EQ(hits[1], 2);
    EXPECT_EQ(hits[2], 1);
}

TEST(ForEachIndexTest, ThrowStopsClaimingAndRethrows)
{
    // One worker claims in order: index 3 throws, so 4.. never run.
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    EXPECT_THROW(forEachIndex(&pool, 100,
                              [&ran](std::size_t i) {
                                  if (i == 3)
                                      throw std::runtime_error("3");
                                  ++ran;
                              }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 3);
    // The pool is reusable afterwards.
    forEachIndex(&pool, 10, [&ran](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 13);
}

TEST(SweepRunnerTest, MakeGridIsWorkloadMajorAndResolvesDefaults)
{
    const std::vector<const WorkloadInfo *> workloads{
        findWorkload("gzip"), findWorkload("mcf")};
    ASSERT_TRUE(workloads[0] != nullptr && workloads[1] != nullptr);
    const std::vector<Algorithm> algos{Algorithm::Net, Algorithm::Lei};

    SimOptions base;
    base.maxEvents = 0; // each workload's default
    base.seed = 7;
    const auto grid =
        SweepRunner::makeGrid(workloads, algos, base, 42);
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].workload->name, "gzip");
    EXPECT_EQ(grid[0].algo, Algorithm::Net);
    EXPECT_EQ(grid[1].workload->name, "gzip");
    EXPECT_EQ(grid[1].algo, Algorithm::Lei);
    EXPECT_EQ(grid[2].workload->name, "mcf");
    EXPECT_EQ(grid[0].opts.maxEvents, workloads[0]->defaultEvents);
    EXPECT_EQ(grid[2].opts.maxEvents, workloads[1]->defaultEvents);
    // The paper's methodology: one stream per seed.
    for (const SweepCell &cell : grid)
        EXPECT_EQ(cell.opts.seed, 7u);

    SimOptions capped = base;
    capped.maxEvents = 1234;
    const auto cappedGrid =
        SweepRunner::makeGrid(workloads, algos, capped, 42);
    for (const SweepCell &cell : cappedGrid)
        EXPECT_EQ(cell.opts.maxEvents, 1234u);
}

/** Every field the harnesses print, compared exactly. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.selector, b.selector);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.cachedInsts, b.cachedInsts);
    EXPECT_EQ(a.interpretedInsts, b.interpretedInsts);
    EXPECT_EQ(a.regionCount, b.regionCount);
    EXPECT_EQ(a.expansionInsts, b.expansionInsts);
    EXPECT_EQ(a.expansionBytes, b.expansionBytes);
    EXPECT_EQ(a.exitStubs, b.exitStubs);
    EXPECT_EQ(a.regionTransitions, b.regionTransitions);
    EXPECT_EQ(a.regionExecutions, b.regionExecutions);
    EXPECT_EQ(a.cycleTerminations, b.cycleTerminations);
    EXPECT_EQ(a.spanningRegions, b.spanningRegions);
    EXPECT_EQ(a.coverSet90, b.coverSet90);
    EXPECT_EQ(a.maxLiveCounters, b.maxLiveCounters);
    EXPECT_EQ(a.peakObservedTraceBytes, b.peakObservedTraceBytes);
    EXPECT_EQ(a.exitDominatedRegions, b.exitDominatedRegions);
    EXPECT_EQ(a.exitDominatedDupInsts, b.exitDominatedDupInsts);
    EXPECT_EQ(a.duplicatedInsts, b.duplicatedInsts);
    EXPECT_EQ(a.icacheAccesses, b.icacheAccesses);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
}

TEST(SweepRunnerTest, ParallelResultsMatchSerialExactly)
{
    const std::vector<const WorkloadInfo *> workloads{
        findWorkload("gzip"), findWorkload("crafty"),
        findWorkload("twolf")};
    const std::vector<Algorithm> algos{Algorithm::Net, Algorithm::Lei,
                                       Algorithm::LeiCombined};
    SimOptions base;
    base.maxEvents = 30'000;
    base.seed = 7;
    const auto grid =
        SweepRunner::makeGrid(workloads, algos, base, 42);

    const std::vector<SimResult> serial = SweepRunner(1).run(grid);
    ASSERT_EQ(serial.size(), grid.size());
    const std::vector<SimResult> parallel = SweepRunner(4).run(grid);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
    }
    // Grid order, not completion order.
    EXPECT_EQ(parallel[0].workload, "gzip");
    EXPECT_EQ(parallel.back().workload, "twolf");
    EXPECT_EQ(parallel[1].selector, "LEI");
}

TEST(SweepRunnerTest, JobsZeroMeansHardwareConcurrency)
{
    EXPECT_EQ(SweepRunner(0).jobs(), ThreadPool::hardwareWorkers());
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunnerTest, CellFailuresPropagateAfterTheSweep)
{
    std::vector<SweepCell> cells(3);
    cells[0].workload = findWorkload("gzip");
    cells[0].opts.maxEvents = 1'000;
    cells[1].workload = nullptr; // poisoned cell
    cells[2].workload = findWorkload("mcf");
    cells[2].opts.maxEvents = 1'000;
    EXPECT_THROW(SweepRunner(2).run(cells), PanicError);
    EXPECT_THROW(SweepRunner(1).run(cells), PanicError);
}

TEST(SimResultMergeTest, CountersSumAndPeaksMax)
{
    SimResult a;
    a.selector = "NET";
    a.workload = "gzip";
    a.events = 10;
    a.totalInsts = 100;
    a.cachedInsts = 60;
    a.regionCount = 3;
    a.maxLiveCounters = 5;
    a.peakObservedTraceBytes = 400;
    a.coverSet90 = 2;

    SimResult b;
    b.selector = "NET";
    b.workload = "mcf";
    b.events = 20;
    b.totalInsts = 300;
    b.cachedInsts = 240;
    b.regionCount = 4;
    b.maxLiveCounters = 9;
    b.peakObservedTraceBytes = 100;

    const SimResult m = mergeResults({a, b});
    EXPECT_EQ(m.selector, "NET");
    EXPECT_EQ(m.workload, "mixed");
    EXPECT_EQ(m.events, 30u);
    EXPECT_EQ(m.totalInsts, 400u);
    EXPECT_EQ(m.cachedInsts, 300u);
    EXPECT_EQ(m.regionCount, 7u);
    EXPECT_EQ(m.maxLiveCounters, 9u);
    EXPECT_EQ(m.peakObservedTraceBytes, 400u);
    EXPECT_DOUBLE_EQ(m.hitRate(), 0.75);
    // Per-cache structure must not leak through a merge.
    EXPECT_EQ(m.coverSet90, 0u);
    EXPECT_TRUE(m.regions.empty());
}

} // namespace
} // namespace rsel
