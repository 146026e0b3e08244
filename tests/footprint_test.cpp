/**
 * @file
 * Memory-footprint gate for one service tenant.
 *
 * The per-run lookup tables — MetricsCollector's edge and region-link
 * filters and LEI's history-buffer target table — are sized by the
 * program they serve, so a tenant-sized program must cost a
 * tenant-sized system, while the paper's suite programs keep the
 * full-size tables.
 *
 * This is its own binary: it replaces the global operator new and
 * operator delete to count the heap bytes a construction leaves live.
 * Counting the requested sizes (not the allocator's rounded ones)
 * keeps the figures the same on every allocator and under ASan.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dynopt/dynopt_system.hpp"
#include "program/executor.hpp"
#include "service/tenant_spec.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace {

/** Requested bytes currently live through the operators below. */
std::size_t liveBytes = 0;

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
    return static_cast<char *>(base) + headerBytes;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    void *base = static_cast<char *>(p) - headerBytes;
    liveBytes -= *static_cast<std::size_t *>(base);
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
