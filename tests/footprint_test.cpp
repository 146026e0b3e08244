/**
 * @file
 * Memory-footprint gate for one service tenant.
 *
 * The per-run lookup tables — MetricsCollector's edge and region-link
 * filters and LEI's history-buffer target table — are sized by the
 * program they serve, so a tenant-sized program must cost a
 * tenant-sized system, while the paper's suite programs keep the
 * full-size tables. And a tenant's lifecycle — build, run, finish,
 * teardown — must cost a bounded number of allocations per phase,
 * with none at all on a stretch of cached events.
 *
 * This is its own binary: it replaces the global operator new and
 * operator delete to count the heap bytes a construction leaves live
 * and the allocations each phase makes. Counting the requested sizes
 * (not the allocator's rounded ones) keeps the figures the same on
 * every allocator and under ASan.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>

#include "dynopt/dynopt_system.hpp"
#include "program/executor.hpp"
#include "service/tenant_spec.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace {

/** Requested bytes currently live through the operators below. */
std::size_t liveBytes = 0;
/** Allocations made through the operators below. */
std::size_t allocations = 0;
/** Allocations not yet freed. */
std::size_t liveAllocations = 0;

// Each allocation carries its size in a header so operator delete
// can subtract it; max_align_t keeps the payload aligned like
// malloc's.
constexpr std::size_t headerBytes = alignof(std::max_align_t);

void *
countedAlloc(std::size_t n)
{
    void *base = std::malloc(n + headerBytes);
    if (base == nullptr)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(base) = n;
    liveBytes += n;
    ++allocations;
    ++liveAllocations;
    return static_cast<char *>(base) + headerBytes;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    void *base = static_cast<char *>(p) - headerBytes;
    liveBytes -= *static_cast<std::size_t *>(base);
    --liveAllocations;
    std::free(base);
}

void *
countedAllocNothrow(std::size_t n) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

} // namespace

// Every non-aligned form is replaced: some runtimes (ASan's among
// them) define each form on its own instead of forwarding to the
// basic one, and a block must be freed by the allocator that made
// it. Nothing in the library is over-aligned, so the aligned forms
// stay the runtime's.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(n);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace rsel {
namespace {

/** serve-4096's per-tenant limits: 1 MiB over 4096 tenants. */
CacheLimits
serveLimits()
{
    CacheLimits limits;
    limits.capacityBytes = 256;
    limits.policy = CacheLimits::Policy::FullFlush;
    return limits;
}

/**
 * Heap bytes left allocated by building one tenant the way the
 * service does before its first event: the program, the system with
 * its selector, and the executor. The three objects themselves sit
 * on the stack here (the service adds their ~2 KiB of sizeof).
 */
std::size_t
tenantHeapBytes(const service::TenantSpec &spec)
{
    const std::size_t before = liveBytes;
    const Program prog = testing::generateProgram(spec.program);
    DynOptSystem sys(prog, serveLimits());
    attachAlgorithm(sys, spec.algo, service::tenantSimOptions(spec));
    const Executor exec(prog, spec.program.execSeed);
    return liveBytes - before;
}

bool
usesLei(Algorithm algo)
{
    return algo == Algorithm::Lei || algo == Algorithm::LeiCombined;
}

TEST(FootprintTest, ServeTenantsAreSizedByTheirPrograms)
{
    // Seeds 1-7 cycle through all seven selectors. Before the tables
    // were sized by the program these took 98-102 KiB (LEI) and
    // 68-74 KiB (the rest), almost all of it fixed-size tables.
    bool sawLei = false;
    bool sawOther = false;
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        const service::TenantSpec spec =
            service::TenantSpec::fromSeed(seed);
        const std::size_t bytes = tenantHeapBytes(spec);
        const std::size_t bound =
            usesLei(spec.algo) ? 40 * 1024 : 16 * 1024;
        std::printf("seed %llu %-9s %zu bytes (bound %zu)\n",
                    static_cast<unsigned long long>(seed),
                    algorithmName(spec.algo).c_str(), bytes, bound);
        EXPECT_LE(bytes, bound) << spec.toString();
        (usesLei(spec.algo) ? sawLei : sawOther) = true;
    }
    EXPECT_TRUE(sawLei && sawOther);
}

/** Allocations per phase of one tenant's lifecycle. */
struct LifecycleCounts
{
    std::size_t build = 0;     ///< program, executor and system
    std::size_t run = 0;       ///< over the event budget
    std::uint64_t regions = 0; ///< regions formed over the run
    std::size_t finish = 0;    ///< in finish()
    std::size_t teardown = 0;  ///< still live at destruction
};

/** serve-4096's per-tenant event budget. */
constexpr std::uint64_t serveEvents = 16000;

/**
 * Fill `batch` from `exec` into `sys` until `events` are consumed or
 * the guest halts, as a service slice does with its worker's batch.
 */
void
drive(Executor &exec, DynOptSystem &sys, EventBatch &batch,
      std::uint64_t events)
{
    while (events != 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(events, batch.blockIds.capacity()));
        const std::size_t got = exec.fillBatch(batch, want);
        sys.onBatch(batch);
        events -= got;
        if (got < want)
            return;
    }
}

/** Count one tenant's lifecycle the way the service runs it. */
LifecycleCounts
tenantLifecycle(const service::TenantSpec &spec, EventBatch &batch)
{
    LifecycleCounts c;
    const std::size_t building = allocations;
    std::optional<Program> prog;
    prog.emplace(testing::generateProgram(spec.program));
    std::optional<Executor> exec;
    exec.emplace(*prog, spec.program.execSeed);
    std::optional<DynOptSystem> sys;
    sys.emplace(*prog, serveLimits());
    attachAlgorithm(*sys, spec.algo, service::tenantSimOptions(spec));
    sys->armFaults(spec.faults);
    c.build = allocations - building;

    const std::size_t running = allocations;
    drive(*exec, *sys, batch, serveEvents);
    c.run = allocations - running;

    const std::size_t finishing = allocations;
    const SimResult result = sys->finish();
    c.finish = allocations - finishing;
    c.regions = result.regionCount;

    const std::size_t live = liveAllocations;
    sys.reset();
    exec.reset();
    prog.reset();
    c.teardown = live - liveAllocations;
    return c;
}

TEST(FootprintTest, TenantLifecycleAllocationCeilings)
{
    // Seeds 1-7 cycle through all seven selectors. The ceilings sit
    // about 25% above the totals measured when the program, cache and
    // metrics tables went flat (build 190, 131 over 6 regions,
    // finish 45, teardown 202); before that the same tenants made
    // 755 build allocations, 239 over the same 6 regions, 168 in
    // finish() and left 685 live.
    EventBatch batch; // the worker's scratch batch, not the tenant's
    batch.reserve(defaultBatchSize);
    LifecycleCounts total;
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        const service::TenantSpec spec =
            service::TenantSpec::fromSeed(seed);
        const LifecycleCounts c = tenantLifecycle(spec, batch);
        std::printf("seed %llu %-9s build %zu run %zu (%llu regions) "
                    "finish %zu teardown %zu\n",
                    static_cast<unsigned long long>(seed),
                    algorithmName(spec.algo).c_str(), c.build, c.run,
                    static_cast<unsigned long long>(c.regions), c.finish,
                    c.teardown);
        total.build += c.build;
        total.run += c.run;
        total.regions += c.regions;
        total.finish += c.finish;
        total.teardown += c.teardown;
    }
    ASSERT_GT(total.regions, 0u);
    const double perRegion = static_cast<double>(total.run) /
                             static_cast<double>(total.regions);
    std::printf("total build %zu, %.1f per region, finish %zu, "
                "teardown %zu\n",
                total.build, perRegion, total.finish, total.teardown);
    EXPECT_LE(total.build, 240u);
    EXPECT_LE(perRegion, 27.5);
    EXPECT_LE(total.finish, 56u);
    EXPECT_LE(total.teardown, 252u);
}

TEST(FootprintTest, CachedEventsAllocateNothing)
{
    // After the tenants' serve budget, slices of events that all run
    // from the code cache, form no region and record no new edge or
    // region link must not touch the heap: the edge profile, the
    // links and every per-event structure are already sized.
    EventBatch batch;
    batch.reserve(256);
    std::size_t cachedSlices = 0;
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        const service::TenantSpec spec =
            service::TenantSpec::fromSeed(seed);
        const Program prog = testing::generateProgram(spec.program);
        Executor exec(prog, spec.program.execSeed);
        DynOptSystem sys(prog, serveLimits());
        attachAlgorithm(sys, spec.algo, service::tenantSimOptions(spec));
        drive(exec, sys, batch, serveEvents);
        for (int slice = 0; slice < 64 && !exec.finished(); ++slice) {
            const MetricsCollector &m = sys.metrics();
            const std::uint64_t interpreted = m.interpretedInsts();
            const std::size_t regions = sys.cache().regionCount();
            const std::size_t edges = m.edgeCount();
            const std::size_t links = m.linkCount();
            const std::size_t before = allocations;
            drive(exec, sys, batch, batch.blockIds.capacity());
            const std::size_t made = allocations - before;
            if (m.interpretedInsts() != interpreted ||
                sys.cache().regionCount() != regions ||
                m.edgeCount() != edges || m.linkCount() != links)
                continue;
            ++cachedSlices;
            EXPECT_EQ(made, 0u) << "seed " << seed << " slice " << slice;
        }
    }
    std::printf("%zu all-cached slices of %zu events\n", cachedSlices,
                batch.blockIds.capacity());
    EXPECT_GT(cachedSlices, 0u);
}

TEST(FootprintTest, CachedSuiteEventsAllocateNothing)
{
    // The same rule on the paper's configurations over two suite
    // programs with an unbounded cache: after a 200k-event warm-up,
    // a 256-event slice that interprets nothing and adds no region,
    // edge or region link must not touch the heap.
    EventBatch batch;
    batch.reserve(256);
    for (const char *workload : {"gzip", "gcc"}) {
        const Program prog = findWorkload(workload)->build(42);
        for (const Algorithm algo : allAlgorithms) {
            Executor exec(prog, 7);
            DynOptSystem sys(prog);
            attachAlgorithm(sys, algo);
            drive(exec, sys, batch, 200'000);
            std::size_t cachedSlices = 0;
            for (int slice = 0; slice < 400 && !exec.finished(); ++slice) {
                const MetricsCollector &m = sys.metrics();
                const std::uint64_t interpreted = m.interpretedInsts();
                const std::size_t regions = sys.cache().regionCount();
                const std::size_t edges = m.edgeCount();
                const std::size_t links = m.linkCount();
                const std::size_t before = allocations;
                drive(exec, sys, batch, batch.blockIds.capacity());
                const std::size_t made = allocations - before;
                if (m.interpretedInsts() != interpreted ||
                    sys.cache().regionCount() != regions ||
                    m.edgeCount() != edges || m.linkCount() != links)
                    continue;
                ++cachedSlices;
                EXPECT_EQ(made, 0u) << workload << ' ' << algorithmName(algo)
                                    << " slice " << slice;
            }
            std::printf("%s %-9s %zu all-cached slices of %zu events\n",
                        workload, algorithmName(algo).c_str(), cachedSlices,
                        batch.blockIds.capacity());
            EXPECT_GT(cachedSlices, 0u) << workload << ' '
                                        << algorithmName(algo);
        }
    }
}

TEST(FootprintTest, SuiteProgramsKeepFullSizeTables)
{
    // gcc has 601 blocks: its filters stay at the 4096-slot cap and
    // its LEI target table at 1024 slots (500 < 601), so both cost
    // what they cost before tables were sized by the program (the
    // two figures below, measured then).
    const Program gcc = findWorkload("gcc")->build(42);
    ASSERT_GE(gcc.blocks().size(), 512u);

    const std::size_t before = liveBytes;
    DynOptSystem sys(gcc);
    const std::size_t system = liveBytes - before;
    sys.useLei();
    const std::size_t lei = liveBytes - before - system;
    std::printf("gcc (%zu blocks): DynOptSystem %zu bytes, LEI %zu\n",
                gcc.blocks().size(), system, lei);
    EXPECT_NEAR(static_cast<double>(system), 67632.0, 1024.0);
    EXPECT_NEAR(static_cast<double>(lei), 28600.0, 1024.0);
}

} // namespace
} // namespace rsel
