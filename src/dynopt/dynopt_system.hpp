/**
 * @file
 * The simulated dynamic optimization system (paper Section 2.1).
 *
 * Consumes the dynamic basic-block stream from an Executor and
 * simulates the interpreter / code-cache state machine around a
 * pluggable RegionSelector:
 *
 *  - While interpreting, every taken branch whose target is a cached
 *    region entry transfers into the cache; all other interpreted
 *    blocks are reported to the selector.
 *  - While executing a region, control follows the region's internal
 *    structure; leaving it either links directly to another region
 *    (a region transition) or falls back to the interpreter, in
 *    which case the selector sees the landing block flagged as a
 *    code-cache exit.
 *  - Regions completed by the selector are inserted into the cache;
 *    if the new region begins at the block currently being
 *    processed, control jumps straight into it (Figure 5's
 *    "jump newT").
 */

#ifndef RSEL_DYNOPT_DYNOPT_SYSTEM_HPP
#define RSEL_DYNOPT_DYNOPT_SYSTEM_HPP

#include <memory>
#include <unordered_map>

#include "analysis/diagnostics.hpp"
#include "analysis/program_facts.hpp"
#include "metrics/metrics_collector.hpp"
#include "program/executor.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/recovery_stats.hpp"
#include "runtime/code_cache.hpp"
#include "runtime/icache.hpp"
#include "selection/boa_selector.hpp"
#include "selection/lei_selector.hpp"
#include "selection/net_selector.hpp"
#include "selection/wrs_selector.hpp"

namespace rsel {

/**
 * How the system disposed of the last consumed event. The probe the
 * testing layer (InvariantSink) uses to assert transparency: the
 * block stream executed through the code cache must equal the
 * architectural stream block-for-block.
 */
struct StepTrace
{
    enum class Where : std::uint8_t { Interpreted, Cached };

    /** Whether the block ran in the interpreter or the cache. */
    Where where = Where::Interpreted;
    /** Region the block ran from; valid iff where == Cached. */
    RegionId region = invalidRegion;
    /** Index into the region's blocks(); valid iff where == Cached. */
    std::size_t pos = 0;
    /** True if this event began a region execution (entry/restart). */
    bool enteredRegion = false;
    /** True if this event landed in the interpreter off a cache exit. */
    bool cacheExit = false;
};

/**
 * The Section 2.1 simulator, driven as an ExecutionSink (one virtual
 * call per block) or — the fast path — as a BatchSink (one virtual
 * call per EventBatch). The batch loop runs cached stretches through
 * consumeRegionRun() and every other event through the per-event
 * state machine, armed or not: the fault injector draws ahead to the
 * next event a fault fires at, and only that event leaves the run
 * loop for its tick. Both paths give byte-identical SimResults.
 */
class DynOptSystem : public ExecutionSink, public BatchSink
{
  public:
    /**
     * @param prog   the program being run; must outlive the system.
     * @param limits code-cache capacity/eviction; default unbounded
     *               (the paper's Section 2.3 methodology).
     * @param icache geometry of the modelled instruction cache fed
     *               by code-cache execution (locality measurement).
     */
    explicit DynOptSystem(const Program &prog, CacheLimits limits = {},
                          ICacheConfig icache = {});

    DynOptSystem(const DynOptSystem &) = delete;
    DynOptSystem &operator=(const DynOptSystem &) = delete;

    /** Use NET selection (optionally combined). @return this. */
    DynOptSystem &useNet(NetConfig cfg = {});

    /** Use LEI selection (optionally combined). @return this. */
    DynOptSystem &useLei(LeiConfig cfg = {});

    /** Use BOA-style edge-profile selection. @return this. */
    DynOptSystem &useBoa(BoaConfig cfg = {});

    /** Use Wiggins/Redstone-style sampling selection. @return this. */
    DynOptSystem &useWrs(WrsConfig cfg = {});

    /**
     * Use a caller-provided selection algorithm. The factory
     * receives the program and this system's code cache, which the
     * selector may hold references to.
     */
    template <typename Factory>
    DynOptSystem &
    useCustom(Factory &&factory)
    {
        selector_ = factory(prog_, cache_);
        return *this;
    }

    /**
     * Statically verify every region a selector emits before it is
     * cached (the analysis layer's RegionVerifier), and cross-check
     * the duplication accounting at finish(). Error diagnostics
     * throw analysis::VerifyError naming the selector, the region
     * id and the failing pass; warnings accumulate in
     * verifyDiagnostics(). @return this.
     */
    DynOptSystem &enableVerifyOnSubmit();

    /**
     * Arm deterministic fault injection for this run. A disarmed
     * plan (nothing can fire) is a no-op, and with no plan armed
     * every resilience hook reduces to one branch per event —
     * zero-cost by design. Must be called before the first event.
     *
     * While armed, the system degrades gracefully instead of
     * crashing: failed submits are retried with per-entrance
     * exponential backoff (measured in interpreted events) up to the
     * plan's retry budget, after which the entrance is blacklisted
     * and runs interpreted forever. Execution is never wrong, only
     * slower — the transparency oracle holds under every plan.
     * @return this.
     */
    DynOptSystem &armFaults(const resilience::FaultPlan &plan);

    /**
     * Observe this system's code-cache structural mutations
     * (insert / evict / invalidate / flush). The multi-tenant
     * service uses this to mirror a tenant's logical cache into the
     * shared sharded arena; notifications never fire on the
     * per-event lookup path, so results are byte-identical with or
     * without a listener. @return this.
     */
    DynOptSystem &
    setCacheListener(CodeCache::Listener *listener)
    {
        cache_.setListener(listener);
        return *this;
    }

    /**
     * Tear the cache down through the PR-4 disruption machinery:
     * every live region is flushed (the attached listener sees the
     * drops) and the selector — if any — is told via
     * onCacheDisruption(Flush), exactly as a capacity flush storm
     * would. Safe before or after finish(): a post-finish shutdown
     * only mutates cache state, never the already-finalized
     * SimResult. Tenant teardown routes through here so dead
     * regions can never resurrect into another tenant.
     */
    void
    shutdownCache()
    {
        // An in-flight execution ends here even when a flush fault
        // already emptied the cache under it.
        inRegion_ = false;
        curRegionPtr_ = nullptr;
        if (cache_.liveRegionCount() == 0)
            return;
        cache_.flushAll();
        if (selector_ != nullptr)
            selector_->onCacheDisruption(CacheDisruption::Flush);
    }

    /**
     * Change the logical cache's capacity bound mid-run (the service
     * layer's memory-pressure squeeze). Over-bound occupancy is
     * evicted immediately under the configured policy, exactly as an
     * insert-driven makeRoom would — selector-silent, listener
     * mirrored. Deterministic: a pure function of when the call
     * lands on the event stream.
     */
    void setCacheCapacity(std::uint64_t capacityBytes)
    {
        cache_.setCapacity(capacityBytes);
    }

    /**
     * The overload controller's terminal graceful state: flush the
     * cache through the disruption machinery (shutdownCache) and
     * stop optimizing for good — every further event is interpreted,
     * the selector and translator are never consulted again.
     * Transparency holds (the guest stream still executes
     * completely); only performance degrades. Irreversible.
     */
    void
    degradeToInterpretation()
    {
        shutdownCache();
        pendingCacheExit_ = false;
        interpretOnly_ = true;
    }

    /** Fault/recovery counters so far (all zero when disarmed). */
    const resilience::RecoveryStats &recoveryStats() const
    {
        return recovery_;
    }

    /** Diagnostics accumulated by verify-on-submit. */
    const analysis::DiagnosticEngine &verifyDiagnostics() const
    {
        return verifyDiag_;
    }

    /**
     * Tell the verifier the active selector's maximum trace size
     * (the lei-cyclicity size-limit exculpation). useLei() records
     * it automatically; useCustom() callers wrapping LEI set it by
     * hand. @return this.
     */
    DynOptSystem &setLeiTraceLimitHint(std::uint32_t maxTraceInsts)
    {
        leiMaxTraceInsts_ = maxTraceInsts;
        return *this;
    }

    /** ExecutionSink: consume one dynamic block event. */
    bool onEvent(const ExecEvent &event) override;

    /**
     * BatchSink: consume a whole batch of events in one loop. When
     * armed, faults fire at exactly the same event indices as on the
     * per-event path. Always consumes the full batch.
     */
    std::size_t onBatch(const EventBatch &batch) override;

    /**
     * Close the run and compute all metrics. May be called once,
     * after the executor finishes.
     */
    SimResult finish();

    /** The code cache (for tests and examples). */
    const CodeCache &cache() const { return cache_; }

    /** The active selector. @pre a use*() call happened. */
    const RegionSelector &selector() const { return *selector_; }

    /** Disposition of the most recent onEvent() (testing probe). */
    const StepTrace &lastStep() const { return lastStep_; }

    /** Positions in the layout stripe, dead regions' included
     *  (testing probe). */
    std::size_t layoutStripeLength() const { return layoutPos_.size(); }

    /** The live metrics collector (testing probe). */
    const MetricsCollector &metrics() const { return metrics_; }

  private:
    /** Code-cache placement of one region's blocks. */
    struct RegionLayout
    {
        /** Base address of the region in the code cache. */
        std::uint64_t base = 0;
        /** Where the region's positions (parallel to
         *  Region::blocks) start in layoutPos_. */
        std::uint32_t posBegin = 0;
        /**
         * Trace edge high-water mark: the furthest position a
         * consumeRegionRun step has reached. Every execution begins
         * at position 0 and records each edge it traverses, so the
         * edges into positions 1..edgeMark are in the profile.
         */
        std::uint32_t edgeMark = 0;
        /** The region's block bytes (its last block ends there). */
        std::uint32_t bytes = 0;
    };

    /** One block of a laid-out region: everything the run loop
     *  reads about a position besides its block id. */
    struct LayoutPos
    {
        /** Byte offset from the region's base. */
        std::uint32_t offset = 0;
        /** The block's guest instructions. */
        std::uint32_t insts = 0;
        /** Where the block's I-cache lines were last found. */
        ICacheModel::FetchMemo fetch;
        /**
         * Which of the position's fixed out-edges the profile
         * already holds: for a multi-path member its cached
         * successor edges (Region::Successors), for a trace position
         * its back edge to the top.
         */
        std::uint8_t edgesSeen = 0;
    };
    static_assert(sizeof(LayoutPos) <= 24, "at most 24 bytes a position");

    /** LayoutPos::edgesSeen bits. */
    static constexpr std::uint8_t takenEdgeSeen = 1;
    static constexpr std::uint8_t fallEdgeSeen = 2;
    static constexpr std::uint8_t backEdgeSeen = 4;

    /** Insert a selector-completed region into the cache. */
    void installRegion(RegionSpec spec);

    /**
     * Drop dead regions' positions from layoutPos_ once they
     * outnumber the live regions' blocks: each live stripe moves to
     * the front, in region-id order, with its fetch memos and edge
     * bits. @pre no run is inside a region (installRegion's state).
     */
    void compactLayouts();

    /**
     * Submit a selector-completed region through the resilience
     * layer: blacklist and backoff gates first, then the injected
     * translation-failure roll, then the real install. With no
     * injector armed this is installRegion() plus one branch.
     * @return true if the region was actually cached.
     */
    bool submitRegion(RegionSpec spec);

    /** Apply the event-driven faults `tick` says fire now. */
    void injectEventFaults(const resilience::FaultInjector::Tick &tick);

    /** Verify-on-submit: check a spec, throw on error diagnostics. */
    void verifySpec(const RegionSpec &spec);

    /** Verify-on-submit: check the constructed, cached region. */
    void verifyInstalled(const Region &region);

    /** Throw VerifyError if diagnostics past `before` hold errors. */
    void throwOnNewErrors(std::size_t before, RegionId id);

    /** Enter a region: bookkeeping common to all entry paths. */
    void enterRegion(const Region &region, const BasicBlock &block);

    /**
     * The per-event state machine shared by onEvent and onBatch. The
     * caller applies the event's fault tick first, if any. After
     * degradeToInterpretation() it stops after the metrics (event,
     * edge, interpreted block): no selector, no cache.
     */
    void processEvent(const ExecEvent &ev);

    /**
     * Batch fast path: consume a run of events that stay in the code
     * cache, from batch index `i` up to `end`: Internal steps and
     * CycleRestarts of the current region (trace or multi-path), and
     * exits that link straight to another cached region's entry,
     * which continue the run under that region. Stops at the first
     * event that leaves for the interpreter (left for processEvent)
     * or at `end`: the batch end, or the next event a fault fires
     * at. Metrics for the run are accumulated locally and folded in
     * with two bulk calls per region; every per-event architectural
     * effect (edge profile, I-cache accesses, predecessor tracking)
     * is applied exactly as the per-event path would.
     * @return the index of the first unconsumed event.
     * @pre inRegion_ (never set on a degraded system).
     */
    std::size_t consumeRegionRun(const EventBatch &batch, std::size_t i,
                                 std::size_t end);

    /**
     * Feed one cached block's fetch through the I-cache model's
     * per-access path, using the current-region layout cached by
     * enterRegion().
     */
    void
    fetchCachedCur(std::size_t pos, const BasicBlock &block)
    {
        icache_.fetchRange(curBase_ + curPos_[pos].offset,
                           static_cast<std::uint32_t>(
                               block.sizeBytes()));
    }

    const Program &prog_;
    CodeCache cache_;
    MetricsCollector metrics_;
    ICacheModel icache_;
    std::vector<RegionLayout> layouts_;
    /** Positions of the regions in laidOut_, region after region. */
    std::vector<LayoutPos> layoutPos_;
    /** The regions with a stripe in layoutPos_, in id order: every
     *  live region, and those dropped since the last compaction. */
    std::vector<RegionId> laidOut_;
    std::uint64_t nextLayoutAddr_ = 0;
    std::unique_ptr<RegionSelector> selector_;

    /** Per-entrance translation-failure recovery state. */
    struct EntranceState
    {
        /** Consecutive failed submits at this entrance. */
        std::uint32_t failures = 0;
        /** Degraded to pure interpretation (budget exhausted). */
        bool blacklisted = false;
        /** Interpreted-event clock value the backoff window ends at. */
        std::uint64_t backoffUntil = 0;
    };

    std::unique_ptr<resilience::FaultInjector> injector_;
    resilience::RecoveryStats recovery_;
    std::unordered_map<Addr, EntranceState> entrances_;
    /** Interpreted-event clock driving the backoff windows. */
    std::uint64_t interpEvents_ = 0;

    std::uint32_t leiMaxTraceInsts_ = 0;
    /** The program's facts, built once by enableVerifyOnSubmit();
     *  set iff verify-on-submit is active. */
    std::unique_ptr<const analysis::ProgramFacts> facts_;
    analysis::DiagnosticEngine verifyDiag_;

    bool inRegion_ = false;
    RegionId curRegion_ = invalidRegion;
    /** The region curRegion_ names (Region objects outlive eviction
     *  and live in a deque, so the pointer is stable); cached to
     *  keep the in-region fast path free of deque indexing. */
    const Region *curRegionPtr_ = nullptr;
    std::size_t regionPos_ = 0;
    /**
     * The current region's layout, flattened: code-cache base and
     * its positions. Set by enterRegion(). A region is installed
     * only while execution is outside the cache, and every region
     * entry re-caches both, so growing or compacting layoutPos_
     * never leaves a stale stripe in use.
     */
    std::uint64_t curBase_ = 0;
    LayoutPos *curPos_ = nullptr;
    /** Set when execution just left the cache to the interpreter. */
    bool pendingCacheExit_ = false;
    const BasicBlock *prevBlock_ = nullptr;
    /** Terminal graceful-degradation latch (service overload). */
    bool interpretOnly_ = false;
    bool finished_ = false;
    StepTrace lastStep_;
};

/**
 * Selection algorithm chosen by the convenience harness. The first
 * four are the paper's evaluated configurations; Mojo and Boa are
 * the Section 5 related-work selectors.
 */
enum class Algorithm { Net, Lei, NetCombined, LeiCombined, Mojo, Boa,
                       Wrs };

/** The paper's four evaluated configurations, for sweeps. */
constexpr Algorithm allAlgorithms[] = {
    Algorithm::Net, Algorithm::Lei, Algorithm::NetCombined,
    Algorithm::LeiCombined};

/** Every selector the library ships, including Section 5's. */
constexpr Algorithm allSelectors[] = {
    Algorithm::Net,  Algorithm::Lei,  Algorithm::NetCombined,
    Algorithm::LeiCombined, Algorithm::Mojo, Algorithm::Boa,
    Algorithm::Wrs};

/** Human-readable algorithm name. */
std::string algorithmName(Algorithm algo);

/** How the executor delivers events to the system. */
enum class Dispatch : std::uint8_t {
    /** One virtual sink call per block (the reference path). */
    PerEvent,
    /** SoA batches via DynOptSystem::onBatch — byte-identical
     *  results, several times the throughput. */
    Batched,
};

/** Options for the one-call simulation harness. */
struct SimOptions
{
    /** Maximum dynamic block events to execute. */
    std::uint64_t maxEvents = 2'000'000;
    /** Event-delivery mechanism; results are identical either way. */
    Dispatch dispatch = Dispatch::Batched;
    /** Events per batch when dispatch == Batched. */
    std::size_t batchSize = defaultBatchSize;
    /** Executor seed (branch-behaviour randomness). */
    std::uint64_t seed = 1;
    /** NET thresholds (used by Net / NetCombined / Mojo). */
    NetConfig net;
    /** LEI thresholds (used by Lei / LeiCombined). */
    LeiConfig lei;
    /** BOA thresholds (used by Boa). */
    BoaConfig boa;
    /** Wiggins/Redstone sampling parameters (used by Wrs). */
    WrsConfig wrs;
    /** Code-cache bounds; default unbounded. */
    CacheLimits cache;
    /** Modelled instruction-cache geometry. */
    ICacheConfig icache;
    /** Statically verify every emitted region (verify-on-submit). */
    bool verifyRegions = false;
    /** Fault-injection plan; disarmed (all-zero rates) by default. */
    resilience::FaultPlan faults;
};

/**
 * Attach `algo` to `system`, taking thresholds from `opts`. The
 * combine flag of the respective config is set from `algo`; Mojo
 * derives its exit threshold from the NET hot threshold when unset.
 * Shared by simulate() and the trace-replay driver.
 */
void attachAlgorithm(DynOptSystem &system, Algorithm algo,
                     const SimOptions &opts = {});

/**
 * Run `prog` to completion (or maxEvents) under one algorithm and
 * return the metrics. The combine flag of the respective config is
 * set from `algo`.
 */
SimResult simulate(const Program &prog, Algorithm algo,
                   const SimOptions &opts = {});

} // namespace rsel

#endif // RSEL_DYNOPT_DYNOPT_SYSTEM_HPP
