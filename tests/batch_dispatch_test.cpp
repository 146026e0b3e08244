/**
 * @file
 * Tests for batched (structure-of-arrays) event dispatch: EventBatch
 * mechanics, fillBatch/run stream identity, batched simulation
 * equivalence across batch sizes and selectors, batch-boundary edge
 * cases, early-stop semantics, and batched trace replay.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "program/executor.hpp"
#include "program/trace_io.hpp"
#include "testing/differential.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

Program
gzipProgram()
{
    return findWorkload("gzip")->build(42);
}

/** Per-event recorder used as the reference stream. */
struct RecordSink : ExecutionSink
{
    bool
    onEvent(const ExecEvent &ev) override
    {
        ids.push_back(ev.block->id());
        taken.push_back(ev.takenBranch ? 1 : 0);
        branch.push_back(ev.branchAddr);
        return true;
    }
    std::vector<BlockId> ids;
    std::vector<std::uint8_t> taken;
    std::vector<Addr> branch;
};

/** Batch recorder flattening batches back into one stream. */
struct RecordBatchSink : BatchSink
{
    std::size_t
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        maxBatch = std::max(maxBatch, batch.size());
        ids.insert(ids.end(), batch.blockIds.begin(),
                   batch.blockIds.end());
        taken.insert(taken.end(), batch.takenFlags.begin(),
                     batch.takenFlags.end());
        branch.insert(branch.end(), batch.branchAddrs.begin(),
                      batch.branchAddrs.end());
        return batch.size();
    }
    std::vector<BlockId> ids;
    std::vector<std::uint8_t> taken;
    std::vector<Addr> branch;
    std::size_t batches = 0;
    std::size_t maxBatch = 0;
};

TEST(EventBatchTest, PushClearReserve)
{
    EventBatch b;
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
    b.reserve(16);
    b.push(3, true, 0x40);
    b.push(7, false, invalidAddr);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_FALSE(b.empty());
    EXPECT_EQ(b.blockIds[0], 3u);
    EXPECT_EQ(b.takenFlags[0], 1u);
    EXPECT_EQ(b.branchAddrs[0], 0x40u);
    EXPECT_EQ(b.blockIds[1], 7u);
    EXPECT_EQ(b.takenFlags[1], 0u);
    b.clear();
    EXPECT_TRUE(b.empty());
    // clear() keeps capacity: pushing again does not reallocate the
    // stripes (observable via data pointers).
    const BlockId *p = b.blockIds.data();
    b.push(1, false, invalidAddr);
    EXPECT_EQ(b.blockIds.data(), p);
}

TEST(BatchDispatchTest, FillBatchProducesRunStream)
{
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 50'000;

    RecordSink ref;
    {
        Executor exec(prog, 7);
        EXPECT_EQ(exec.run(events, ref), events);
    }

    // Same seed, consumed through fillBatch in uneven chunks.
    Executor exec(prog, 7);
    EventBatch batch;
    std::vector<BlockId> ids;
    std::vector<std::uint8_t> taken;
    std::vector<Addr> branch;
    const std::size_t sizes[] = {1, 2, 509, 4096, 3, 100'000};
    std::size_t si = 0;
    while (ids.size() < events) {
        const std::size_t want =
            std::min<std::size_t>(sizes[si++ % 6],
                                  events - ids.size());
        const std::uint64_t got = exec.fillBatch(batch, want);
        EXPECT_EQ(got, batch.size());
        EXPECT_LE(got, want);
        if (got == 0)
            break;
        ids.insert(ids.end(), batch.blockIds.begin(),
                   batch.blockIds.end());
        taken.insert(taken.end(), batch.takenFlags.begin(),
                     batch.takenFlags.end());
        branch.insert(branch.end(), batch.branchAddrs.begin(),
                      batch.branchAddrs.end());
    }
    EXPECT_EQ(ids, ref.ids);
    EXPECT_EQ(taken, ref.taken);
    EXPECT_EQ(branch, ref.branch);
    EXPECT_EQ(exec.executedBlocks(), events);
}

TEST(BatchDispatchTest, RunBatchedDeliversIdenticalStream)
{
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 30'000;

    RecordSink ref;
    {
        Executor exec(prog, 7);
        exec.run(events, ref);
    }
    for (const std::size_t bs : {std::size_t{1}, std::size_t{509},
                                 defaultBatchSize}) {
        SCOPED_TRACE(bs);
        Executor exec(prog, 7);
        RecordBatchSink sink;
        EXPECT_EQ(exec.runBatched(events, sink, bs), events);
        EXPECT_EQ(sink.ids, ref.ids);
        EXPECT_EQ(sink.taken, ref.taken);
        EXPECT_EQ(sink.branch, ref.branch);
        EXPECT_LE(sink.maxBatch, bs);
        EXPECT_GE(sink.batches, events / bs);
    }
}

TEST(BatchDispatchTest, BatchedMatchesPerEventForEverySelector)
{
    // The headline equivalence: for every selector, the batched
    // DynOptSystem run is byte-identical to the per-event run —
    // including batch size 1 (maximal boundary count) and odd sizes
    // that end batches mid-region and mid-trace-formation. Two
    // programs, gzip and gcc (601 blocks, full-size tables), and on
    // gzip two caches: unbounded, and suite-churn's 1 KiB FullFlush
    // cache, where runs chain between trace and multi-path regions
    // and flushes land mid-run (long enough that every selector
    // flushes).
    CacheLimits churn;
    churn.capacityBytes = 1024;
    churn.policy = CacheLimits::Policy::FullFlush;
    const struct
    {
        const char *workload;
        CacheLimits cache;
        std::uint64_t events;
    } configs[] = {{"gzip", CacheLimits{}, 60'000},
                   {"gzip", churn, 200'000},
                   {"gcc", CacheLimits{}, 60'000}};
    for (const auto &[workload, cache, events] : configs) {
        SCOPED_TRACE(workload);
        SCOPED_TRACE(cache.capacityBytes);
        const Program prog = findWorkload(workload)->build(42);
        for (const Algorithm algo : allSelectors) {
            SCOPED_TRACE(algorithmName(algo));
            SimOptions opts;
            opts.maxEvents = events;
            opts.seed = 7;
            opts.cache = cache;
            opts.dispatch = Dispatch::PerEvent;
            const SimResult ref = simulate(prog, algo, opts);
            if (cache.capacityBytes != 0) {
                EXPECT_GT(ref.cacheFlushes, 0u);
            }
            const std::string fp = testing::resultFingerprint(ref);
            opts.dispatch = Dispatch::Batched;
            for (const std::size_t bs :
                 {std::size_t{1}, std::size_t{257}, defaultBatchSize}) {
                opts.batchSize = bs;
                EXPECT_EQ(testing::resultFingerprint(
                              simulate(prog, algo, opts)),
                          fp)
                    << "batch size " << bs;
            }
        }
    }
}

/**
 * Per-event reference for the degradation test below: forwards each
 * event to the system and degrades it right after the first event
 * that ran from a region whose cache a flush fault had emptied.
 */
struct DegradeAfterEmptiedRegion : ExecutionSink
{
    explicit DegradeAfterEmptiedRegion(DynOptSystem &system)
        : sys(system)
    {}

    bool
    onEvent(const ExecEvent &ev) override
    {
        sys.onEvent(ev);
        ++seen;
        if (degradedAfter == 0 &&
            sys.lastStep().where == StepTrace::Where::Cached &&
            sys.cache().liveRegionCount() == 0) {
            sys.degradeToInterpretation();
            degradedAfter = seen;
        }
        return true;
    }

    DynOptSystem &sys;
    std::uint64_t seen = 0;
    /** Events run before the degradation; 0 = not degraded. */
    std::uint64_t degradedAfter = 0;
};

TEST(BatchDispatchTest, DegradingAfterAFlushEmptiedTheCacheMidRegion)
{
    // A flush fault empties the cache while a region runs, and the
    // system degrades to interpretation right after: the degraded
    // system must never resume that region, batched or not.
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 60'000;
    resilience::FaultPlan plan;
    plan.flushRate = 200; // one flush per 500 events on average
    plan.seed = 3;
    for (const Algorithm algo : allSelectors) {
        SCOPED_TRACE(algorithmName(algo));
        const auto makeSystem = [&] {
            auto sys = std::make_unique<DynOptSystem>(prog);
            attachAlgorithm(*sys, algo);
            sys->armFaults(plan);
            return sys;
        };

        const auto ref = makeSystem();
        DegradeAfterEmptiedRegion sink(*ref);
        Executor(prog, 7).run(events, sink);
        ASSERT_NE(sink.degradedAfter, 0u);
        const std::string fp = testing::resultFingerprint(ref->finish());

        for (const std::size_t bs :
             {std::size_t{1}, std::size_t{257}, defaultBatchSize}) {
            const auto sys = makeSystem();
            Executor exec(prog, 7);
            EventBatch batch;
            for (std::uint64_t ran = 0; ran < events;) {
                const std::uint64_t upto =
                    ran < sink.degradedAfter ? sink.degradedAfter
                                             : events;
                const std::uint64_t got = exec.fillBatch(
                    batch, static_cast<std::size_t>(
                               std::min<std::uint64_t>(bs, upto - ran)));
                ASSERT_NE(got, 0u);
                sys->onBatch(batch);
                ran += got;
                if (ran == sink.degradedAfter)
                    sys->degradeToInterpretation();
            }
            EXPECT_EQ(testing::resultFingerprint(sys->finish()), fp)
                << "batch size " << bs;
        }
    }
}

/**
 * NET, with every other region it forms turned into a multi-path
 * region over the same blocks. No shipped selector mixes the two
 * kinds in one cache; this one makes runs chain trace -> multi-path
 * and back.
 */
class MixedKindSelector : public RegionSelector
{
  public:
    MixedKindSelector(const Program &prog, const CodeCache &cache)
        : inner_(prog, cache, NetConfig{})
    {}

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override
    {
        return mix(inner_.onInterpreted(event));
    }

    std::optional<RegionSpec>
    onCacheEnter(const BasicBlock &entry) override
    {
        return mix(inner_.onCacheEnter(entry));
    }

    void
    onCacheDisruption(CacheDisruption kind) override
    {
        inner_.onCacheDisruption(kind);
    }

    std::size_t
    maxLiveCounters() const override
    {
        return inner_.maxLiveCounters();
    }

    std::string name() const override { return "NET-mixed"; }

  private:
    std::optional<RegionSpec>
    mix(std::optional<RegionSpec> spec)
    {
        if (spec && formed_++ % 2 == 1)
            spec->kind = Region::Kind::MultiPath;
        return spec;
    }

    NetSelector inner_;
    std::size_t formed_ = 0;
};

TEST(BatchDispatchTest, RunsChainBetweenTraceAndMultiPathRegions)
{
    const Program prog = gzipProgram();
    CacheLimits churn;
    churn.capacityBytes = 1024;
    churn.policy = CacheLimits::Policy::FullFlush;
    // batchSize 0 = the per-event reference path.
    const auto fingerprint = [&](const CacheLimits &cache,
                                 std::size_t batchSize) {
        DynOptSystem system(prog, cache);
        system.useCustom([](const Program &p, const CodeCache &c) {
            return std::make_unique<MixedKindSelector>(p, c);
        });
        Executor exec(prog, 7);
        if (batchSize == 0)
            exec.run(200'000, system);
        else
            exec.runBatched(200'000, system, batchSize);
        bool trace = false;
        bool multiPath = false;
        for (const Region &r : system.cache().regions()) {
            trace |= r.kind() == Region::Kind::Trace;
            multiPath |= r.kind() == Region::Kind::MultiPath;
        }
        EXPECT_TRUE(trace && multiPath);
        return testing::resultFingerprint(system.finish());
    };
    for (const CacheLimits &cache : {CacheLimits{}, churn}) {
        SCOPED_TRACE(cache.capacityBytes);
        const std::string fp = fingerprint(cache, 0);
        for (const std::size_t bs :
             {std::size_t{1}, std::size_t{257}, defaultBatchSize})
            EXPECT_EQ(fingerprint(cache, bs), fp) << "batch size " << bs;
    }
}

TEST(BatchDispatchTest, SinkCanStopMidBatch)
{
    const Program prog = gzipProgram();

    // A sink that consumes only the first `limit` events overall.
    struct StoppingSink : BatchSink
    {
        explicit StoppingSink(std::size_t limit) : remaining(limit) {}
        std::size_t
        onBatch(const EventBatch &batch) override
        {
            const std::size_t take =
                std::min(batch.size(), remaining);
            remaining -= take;
            consumed += take;
            return take;
        }
        std::size_t remaining;
        std::size_t consumed = 0;
    };

    // Stop point in the middle of the second batch.
    StoppingSink sink(1500);
    Executor exec(prog, 7);
    const std::uint64_t consumed = exec.runBatched(100'000, sink, 1000);
    EXPECT_EQ(consumed, 1500u);
    EXPECT_EQ(sink.consumed, 1500u);
    // The producer had already advanced past the whole second batch:
    // the unconsumed tail is dropped, not replayed (the documented
    // difference from per-event early stop).
    EXPECT_EQ(exec.executedBlocks(), 2000u);
    EXPECT_FALSE(exec.finished());
}

TEST(BatchDispatchTest, ReplayFillBatchMatchesLiveStream)
{
    // Zero-copy replay: TraceReplayer::fillBatch decodes straight
    // into the stripes and reproduces the recorded stream exactly,
    // including the reconstructed taken flags and branch addresses.
    const Program prog = gzipProgram();
    constexpr std::uint64_t events = 20'000;

    std::ostringstream os;
    RecordSink ref;
    {
        Executor exec(prog, 7);
        TraceWriter writer(os, prog);
        struct Tee : ExecutionSink
        {
            Tee(RecordSink &a, TraceWriter &b) : rec(a), wr(b) {}
            bool
            onEvent(const ExecEvent &ev) override
            {
                rec.onEvent(ev);
                return wr.onEvent(ev);
            }
            RecordSink &rec;
            TraceWriter &wr;
        } tee(ref, writer);
        exec.run(events, tee);
        writer.finish();
    }

    std::istringstream is(os.str());
    TraceReplayer rp(prog, is);
    RecordBatchSink sink;
    EXPECT_EQ(rp.runBatched(events, sink, 509), events);
    EXPECT_EQ(sink.ids, ref.ids);
    EXPECT_EQ(sink.taken, ref.taken);
    EXPECT_EQ(sink.branch, ref.branch);
}

TEST(BatchDispatchTest, BatchedRunAgreesOnTermination)
{
    // Whether a generated program halts inside the cap or the cap
    // stops it, both consumption styles agree on the total event
    // count, the finished flag, and the stream itself — including
    // the final partial batch.
    testing::GenSpec spec = testing::GenSpec::fromSeed(2);
    spec.clamp();
    const Program prog = testing::generateProgram(spec);
    constexpr std::uint64_t cap = 100'000;

    RecordSink ref;
    std::uint64_t total;
    bool refFinished;
    {
        Executor exec(prog, spec.execSeed);
        total = exec.run(cap, ref);
        refFinished = exec.finished();
    }
    Executor exec(prog, spec.execSeed);
    RecordBatchSink sink;
    EXPECT_EQ(exec.runBatched(cap, sink, 777), total);
    EXPECT_EQ(exec.finished(), refFinished);
    EXPECT_EQ(sink.ids, ref.ids);
}

} // namespace
} // namespace rsel
