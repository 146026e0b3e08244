#include "dynopt/dynopt_system.hpp"

#include <algorithm>

#include "analysis/region_verifier.hpp"
#include "support/error.hpp"

namespace rsel {

DynOptSystem::DynOptSystem(const Program &prog, CacheLimits limits,
                           ICacheConfig icache)
    : prog_(prog), cache_(limits, prog.blocks().size()),
      metrics_(prog.blocks().size()),
      icache_(icache)
{}

DynOptSystem &
DynOptSystem::useNet(NetConfig cfg)
{
    selector_ = std::make_unique<NetSelector>(prog_, cache_, cfg);
    return *this;
}

DynOptSystem &
DynOptSystem::useLei(LeiConfig cfg)
{
    selector_ = std::make_unique<LeiSelector>(prog_, cache_, cfg);
    leiMaxTraceInsts_ = cfg.maxTraceInsts;
    return *this;
}

DynOptSystem &
DynOptSystem::enableVerifyOnSubmit()
{
    facts_ = std::make_unique<const analysis::ProgramFacts>(
        analysis::buildProgramFacts(prog_));
    return *this;
}

DynOptSystem &
DynOptSystem::armFaults(const resilience::FaultPlan &plan)
{
    RSEL_ASSERT(prevBlock_ == nullptr && !finished_,
                "faults must be armed before the first event");
    if (plan.armed())
        injector_ = std::make_unique<resilience::FaultInjector>(plan);
    return *this;
}

void
DynOptSystem::throwOnNewErrors(std::size_t before, RegionId id)
{
    const std::string first = verifyDiag_.firstErrorAfter(before);
    if (first.empty())
        return;
    throw analysis::VerifyError(
        "static verifier rejected region " + std::to_string(id) +
        " from selector " + selector_->name() + ": " + first);
}

void
DynOptSystem::verifySpec(const RegionSpec &spec)
{
    analysis::RegionVerifyContext ctx;
    ctx.cache = &cache_;
    ctx.selector = selector_->name();
    ctx.maxTraceInsts = leiMaxTraceInsts_;
    ctx.id = cache_.nextRegionId();
    const std::size_t before = verifyDiag_.diagnostics().size();
    analysis::RegionVerifier(*facts_)
        .runOnSpec(spec, ctx, verifyDiag_);
    throwOnNewErrors(before, ctx.id);
}

void
DynOptSystem::verifyInstalled(const Region &region)
{
    analysis::RegionVerifyContext ctx;
    ctx.cache = &cache_;
    ctx.selector = selector_->name();
    ctx.maxTraceInsts = leiMaxTraceInsts_;
    ctx.id = region.id();
    const std::size_t before = verifyDiag_.diagnostics().size();
    analysis::RegionVerifier(*facts_)
        .runOnRegion(region, ctx, verifyDiag_);
    throwOnNewErrors(before, ctx.id);
}

DynOptSystem &
DynOptSystem::useBoa(BoaConfig cfg)
{
    selector_ = std::make_unique<BoaSelector>(prog_, cache_, cfg);
    return *this;
}

DynOptSystem &
DynOptSystem::useWrs(WrsConfig cfg)
{
    selector_ = std::make_unique<WrsSelector>(prog_, cache_, cfg);
    return *this;
}

void
DynOptSystem::installRegion(RegionSpec spec)
{
    // Verify first so a malformed spec surfaces as a named pass
    // diagnostic instead of tripping the runtime assertions below.
    if (facts_)
        verifySpec(spec);
    RSEL_ASSERT(!spec.blocks.empty(), "selector emitted an empty region");
    RSEL_ASSERT(cache_.lookupEntry(spec.blocks.front()->id()) == nullptr,
                "selector emitted a region at an already-cached entry");
    Region region =
        spec.kind == Region::Kind::Trace
            ? Region::makeTrace(cache_.nextRegionId(),
                                std::move(spec.blocks))
            : Region::makeMultiPath(cache_.nextRegionId(),
                                    std::move(spec.blocks));

    // Lay the region out contiguously after everything selected so
    // far, trailed by its exit stubs (DynamoRIO's placement). A
    // bounded cache would reuse evicted space; the monotone layout
    // is a conservative locality model.
    RSEL_ASSERT(!inRegion_, "regions are installed outside the cache");
    RegionLayout layout;
    layout.base = nextLayoutAddr_;
    layout.posBegin = static_cast<std::uint32_t>(layoutPos_.size());
    std::uint32_t offset = 0;
    for (const BasicBlock *b : region.blocks()) {
        LayoutPos &p = layoutPos_.emplace_back();
        p.offset = offset;
        p.insts = static_cast<std::uint32_t>(b->instCount());
        offset += static_cast<std::uint32_t>(b->sizeBytes());
    }
    layout.bytes = offset;
    nextLayoutAddr_ += offset + region.exitStubCount() * kExitStubBytes;
    layouts_.push_back(layout);
    laidOut_.push_back(region.id());

    const RegionId id = cache_.insert(std::move(region));
    compactLayouts();
    if (facts_)
        verifyInstalled(cache_.region(id));
}

void
DynOptSystem::compactLayouts()
{
    // A dropped region is never entered again, and nothing runs
    // inside a region here, so dead stripes are never read. Only the
    // stripes move: every region keeps its base address, so the
    // modelled addresses, fetches and edges are unchanged.
    const std::size_t live = cache_.liveBlockCount();
    if (layoutPos_.size() - live <= live)
        return;
    std::size_t to = 0;
    std::size_t kept = 0;
    for (const RegionId id : laidOut_) {
        if (!cache_.isLive(id))
            continue;
        RegionLayout &layout = layouts_[id];
        const std::size_t n = cache_.region(id).blocks().size();
        if (layout.posBegin != to) {
            const auto from = layoutPos_.begin() + layout.posBegin;
            std::copy(from, from + static_cast<std::ptrdiff_t>(n),
                      layoutPos_.begin() +
                          static_cast<std::ptrdiff_t>(to));
            layout.posBegin = static_cast<std::uint32_t>(to);
        }
        to += n;
        laidOut_[kept++] = id;
    }
    layoutPos_.resize(to);
    laidOut_.resize(kept);
}

void
DynOptSystem::injectEventFaults(
    const resilience::FaultInjector::Tick &tick)
{
    if (tick.invalidate) {
        // Self-modifying code: a store hits one block; every cached
        // region that copied its bytes is stale. The victim block is
        // drawn from the event stream, so it is identical across
        // selectors at the same event index. A region currently in
        // flight keeps executing — its object stays alive, exactly
        // like an evicted region — and only future lookups miss.
        const BlockId victim = static_cast<BlockId>(
            injector_->pickVictim(prog_.blocks().size()));
        const std::size_t dropped = cache_.invalidateBlock(victim);
        ++recovery_.faultsInjected;
        ++recovery_.blockInvalidations;
        recovery_.regionsInvalidated += dropped;
        if (dropped != 0)
            selector_->onCacheDisruption(CacheDisruption::Invalidation);
    }
    if (tick.flush) {
        ++recovery_.faultsInjected;
        ++recovery_.flushStorms;
        if (cache_.liveRegionCount() != 0) {
            cache_.flushAll();
            selector_->onCacheDisruption(CacheDisruption::Flush);
        }
    }
    if (tick.reset) {
        ++recovery_.faultsInjected;
        ++recovery_.selectorResets;
        selector_->onCacheDisruption(CacheDisruption::Reset);
    }
}

bool
DynOptSystem::submitRegion(RegionSpec spec)
{
    if (!injector_) {
        installRegion(std::move(spec));
        return true;
    }
    RSEL_ASSERT(!spec.blocks.empty(),
                "selector emitted an empty region");
    const Addr entry = spec.blocks.front()->startAddr();
    EntranceState &state = entrances_[entry];
    if (state.blacklisted) {
        // Degraded to pure interpretation: the spec is dropped and
        // the entrance never re-enters the translation pipeline.
        ++recovery_.blacklistSuppressed;
        return false;
    }
    if (state.failures != 0 && interpEvents_ < state.backoffUntil) {
        ++recovery_.backoffSuppressed;
        return false;
    }
    if (injector_->translationFails()) {
        ++recovery_.faultsInjected;
        ++recovery_.translationFailures;
        ++state.failures;
        if (state.failures > injector_->plan().retryBudget) {
            state.blacklisted = true;
            ++recovery_.blacklistedEntrances;
        } else {
            // Exponential backoff on the interpreted-event clock:
            // base << (failures - 1), capped so the shift stays
            // defined for generous retry budgets.
            const std::uint32_t shift =
                std::min<std::uint32_t>(state.failures - 1, 32);
            state.backoffUntil =
                interpEvents_ +
                (injector_->plan().backoffEvents << shift);
        }
        return false;
    }
    installRegion(std::move(spec));
    if (state.failures != 0) {
        // Recovered: the retry after earlier failures succeeded.
        ++recovery_.retries;
        state.failures = 0;
        state.backoffUntil = 0;
    }
    return true;
}

void
DynOptSystem::enterRegion(const Region &region, const BasicBlock &block)
{
    inRegion_ = true;
    curRegion_ = region.id();
    curRegionPtr_ = &region;
    regionPos_ = 0;
    pendingCacheExit_ = false;
    lastStep_.where = StepTrace::Where::Cached;
    lastStep_.region = curRegion_;
    lastStep_.pos = 0;
    lastStep_.enteredRegion = true;
    const RegionLayout &layout = layouts_[curRegion_];
    curBase_ = layout.base;
    curPos_ = layoutPos_.data() + layout.posBegin;
    metrics_.onRegionEntered(curRegion_);
    metrics_.onCachedBlock(block, curRegion_);
    fetchCachedCur(0, block);
}

// Inline, so GCC folds it into both of its callers: onBatch runs it
// for every event outside a cached run.
inline void
DynOptSystem::processEvent(const ExecEvent &ev)
{
    metrics_.onEvent();
    const BasicBlock *from = prevBlock_;
    if (from != nullptr) {
        // Note: prevBlock_ deliberately survives cache disruptions
        // (flush / reset / invalidation). The edge from -> ev.block
        // is an architectural fact — faults perturb cache state,
        // never the guest's control flow — so clearing it would
        // under-count real predecessors and skew the exit-domination
        // analysis. Regression: fault_injection_test
        // EdgeAccountingSpansDisruptions.
        metrics_.onEdge(from->id(), ev.block->id());
    }
    prevBlock_ = ev.block;
    lastStep_ = StepTrace{};
    if (interpretOnly_) {
        // Terminal graceful degradation: interpreted, with no
        // selector or cache involvement.
        ++interpEvents_;
        metrics_.onInterpretedBlock(*ev.block);
        return;
    }

    if (inRegion_) {
        const Region &r = *curRegionPtr_;
        switch (r.step(regionPos_, *ev.block, ev.takenBranch)) {
          case RegionStep::Internal:
            lastStep_.where = StepTrace::Where::Cached;
            lastStep_.region = curRegion_;
            lastStep_.pos = regionPos_;
            metrics_.onCachedBlock(*ev.block, curRegion_);
            fetchCachedCur(regionPos_, *ev.block);
            return;
          case RegionStep::CycleRestart:
            // One region execution ended by a branch to the top;
            // the next begins immediately at the same region.
            lastStep_.where = StepTrace::Where::Cached;
            lastStep_.region = curRegion_;
            lastStep_.pos = regionPos_;
            lastStep_.enteredRegion = true;
            metrics_.onCycleEnd(curRegion_);
            metrics_.onRegionEntered(curRegion_);
            metrics_.onCachedBlock(*ev.block, curRegion_);
            fetchCachedCur(regionPos_, *ev.block);
            return;
          case RegionStep::Exit:
            if (const Region *s = cache_.lookupEntry(ev.block->id())) {
                // Exit stub linked straight to another region (or
                // back to this one's own entry).
                if (s->id() != curRegion_)
                    metrics_.onRegionTransition(curRegion_, s->id());
                enterRegion(*s, *ev.block);
                return;
            }
            // Exit to the interpreter: the landing block is the
            // target of a code-cache exit.
            inRegion_ = false;
            pendingCacheExit_ = true;
            break;
        }
    } else if (ev.takenBranch) {
        // Interpreted taken branch to a cached entry enters the
        // cache (Section 2.1); the selector is told so it can stop
        // a trace that reached the start of another trace.
        if (const Region *r = cache_.lookupEntry(ev.block->id())) {
            if (auto spec = selector_->onCacheEnter(r->entryBlock())) {
                submitRegion(std::move(*spec));
                // Re-resolve: in a bounded cache the insert may
                // have evicted (or flushed) the region we were
                // about to enter.
                r = cache_.lookupEntry(ev.block->id());
            }
            if (r != nullptr) {
                enterRegion(*r, *ev.block);
                return;
            }
            // Evicted under us: fall through to the interpreter.
        }
    }

    // Interpret the block and let the selector observe it. A block
    // reached through a cache exit counts as a taken transfer (the
    // stub jump), with the exiting block's branch as the source.
    SelectorEvent sev;
    sev.block = ev.block;
    sev.fromCacheExit = pendingCacheExit_;
    if (ev.takenBranch) {
        sev.viaTaken = true;
        sev.branchAddr = ev.branchAddr;
    } else if (pendingCacheExit_ && from != nullptr) {
        sev.viaTaken = true;
        sev.branchAddr = from->lastInstAddr();
    }
    const bool wasCacheExit = pendingCacheExit_;
    pendingCacheExit_ = false;

    std::optional<RegionSpec> spec = selector_->onInterpreted(sev);
    bool jumped = false;
    if (spec) {
        const BlockId entry = spec->blocks.front()->id();
        const bool cached = submitRegion(std::move(*spec));
        if (cached && entry == ev.block->id()) {
            // "jump newT": the triggering execution continues
            // natively inside the new region.
            const Region *r = cache_.lookupEntry(entry);
            enterRegion(*r, *ev.block);
            jumped = true;
        }
    }
    if (!jumped) {
        ++interpEvents_;
        lastStep_.cacheExit = wasCacheExit;
        metrics_.onInterpretedBlock(*ev.block);
    }
}

bool
DynOptSystem::onEvent(const ExecEvent &ev)
{
    RSEL_ASSERT(!finished_, "events delivered after finish()");
    RSEL_ASSERT(selector_ != nullptr, "no selector attached");
    // Faults fire on the event clock, before the event is
    // dispatched, so every selector sees the same cache disruptions
    // at the same event indices. A degraded system draws nothing.
    if (injector_ && !interpretOnly_)
        injectEventFaults(injector_->onEvent());
    processEvent(ev);
    return true;
}

std::size_t
DynOptSystem::consumeRegionRun(const EventBatch &batch, std::size_t i,
                               std::size_t end)
{
    const BlockId *const ids = batch.blockIds.data();
    const std::uint8_t *const takenFlags = batch.takenFlags.data();

    // Current-region context, reloaded on every region switch: the
    // loop reads only these and the batch, never a BasicBlock.
    const Region *r = curRegionPtr_;
    RegionLayout *layout = &layouts_[curRegion_];
    bool trace = r->kind() == Region::Kind::Trace;
    const BlockId *rb = r->blockIds().data();
    std::size_t rn = r->blockIds().size();
    LayoutPos *lp = curPos_;
    std::uint64_t base = curBase_;
    std::uint32_t mark = layout->edgeMark;
    ICacheModel::Run fetches(icache_);

    std::size_t pos = regionPos_;
    std::uint64_t insts = 0;
    std::uint64_t restarts = 0;
    std::size_t runStart = i;
    bool lastWasEntry = false;

    const auto flushRun = [&](std::size_t upto) {
        metrics_.addEvents(upto - runStart);
        metrics_.addCachedRun(curRegion_, insts, restarts);
        insts = 0;
        restarts = 0;
        runStart = upto;
    };

    // The effects every consumed event has: its block's instructions
    // and its fetch from the position it ran at. Blocks are laid out
    // back to back, so a block's bytes run to the next one's offset
    // (read only when the fetch memo is not current).
    const auto ranAt = [&](std::size_t at) {
        LayoutPos &p = lp[at];
        insts += p.insts;
        fetches.fetch(base + p.offset, p.fetch, [&] {
            return (at + 1 < rn ? lp[at + 1].offset : layout->bytes) -
                   p.offset;
        });
    };

    // The same decisions Region::step makes, checked before any
    // effect so an unconsumed event is left wholly to processEvent.
    // Each kind of region gets its own loop; both end at an exit,
    // handled below. An edge is probed only where it can be new: a
    // trace step past the high-water mark, a position's first trace
    // restart or multi-path step along a cached successor, any other
    // multi-path transfer, and every exit.
    for (;;) {
        if (trace) {
            for (; i < end; ++i) {
                const BlockId id = ids[i];
                // A region holds a block once, so the recorded next
                // block is never the entry and the two tests below
                // exclude each other. Block starts strictly increase,
                // so the entry address test is an id test.
                if (pos + 1 < rn && id == rb[pos + 1]) {
                    if (++pos > mark) {
                        mark = static_cast<std::uint32_t>(pos);
                        metrics_.onEdge(rb[pos - 1], id);
                    }
                    lastWasEntry = false;
                } else if (takenFlags[i] != 0 && id == rb[0]) {
                    std::uint8_t &seen = lp[pos].edgesSeen;
                    if ((seen & backEdgeSeen) == 0) {
                        seen |= backEdgeSeen;
                        metrics_.onEdge(rb[pos], id);
                    }
                    pos = 0;
                    ++restarts;
                    lastWasEntry = true;
                } else {
                    break;
                }
                ranAt(pos);
            }
        } else {
            for (; i < end; ++i) {
                const BlockId id = ids[i];
                const std::size_t from = pos;
                const Region::Successors &succ = r->successors(from);
                const std::uint8_t bit = id == succ.takenId  ? takenEdgeSeen
                                         : id == succ.fallId ? fallEdgeSeen
                                                             : 0;
                const RegionStep step = r->stepMultiPath(pos, id);
                if (step == RegionStep::Exit)
                    break;
                std::uint8_t &seen = lp[from].edgesSeen;
                if (bit == 0 || (seen & bit) == 0) {
                    seen |= bit;
                    metrics_.onEdge(rb[from], id);
                }
                lastWasEntry = step == RegionStep::CycleRestart;
                restarts += lastWasEntry ? 1 : 0;
                ranAt(pos);
            }
        }
        if (i == end)
            break;
        // Exit. If it lands on another cached region's entry the
        // per-event path would chain straight into it (the selector
        // is not consulted on the exit-stub path), so the run
        // continues under the new region.
        const BlockId id = ids[i];
        const Region *s = cache_.lookupEntry(id);
        if (s == nullptr)
            break;
        metrics_.onEdge(rb[pos], id);
        flushRun(i);
        layout->edgeMark = mark;
        if (s->id() != curRegion_)
            metrics_.onRegionTransition(curRegion_, s->id());
        // The effects of enterRegion(), with the run-local context
        // rebound to the new region.
        curRegion_ = s->id();
        curRegionPtr_ = s;
        layout = &layouts_[curRegion_];
        curBase_ = layout->base;
        curPos_ = layoutPos_.data() + layout->posBegin;
        metrics_.onRegionEntered(curRegion_);
        r = s;
        trace = r->kind() == Region::Kind::Trace;
        rb = r->blockIds().data();
        rn = r->blockIds().size();
        lp = curPos_;
        base = curBase_;
        mark = layout->edgeMark;
        pos = 0;
        lastWasEntry = true;
        ranAt(0);
        ++i;
    }

    layout->edgeMark = mark;
    if (i != runStart) {
        flushRun(i);
        regionPos_ = pos;
        prevBlock_ = &prog_.blocks()[ids[i - 1]];
        if (i == end) {
            // The run stopped mid-region: leave the same step-trace
            // probe state the per-event path would have.
            lastStep_ = StepTrace{};
            lastStep_.where = StepTrace::Where::Cached;
            lastStep_.region = curRegion_;
            lastStep_.pos = pos;
            lastStep_.enteredRegion = lastWasEntry;
        }
    }
    return i;
}

std::size_t
DynOptSystem::onBatch(const EventBatch &batch)
{
    RSEL_ASSERT(!finished_, "events delivered after finish()");
    RSEL_ASSERT(selector_ != nullptr, "no selector attached");
    const BasicBlock *const blocks = prog_.blocks().data();
    const std::size_t n = batch.size();
    // `due` is the next event a fault fires at, n if none does in
    // this batch. The injector has drawn for every event up to and
    // including it, as per-event ticks would have, and for none
    // after, so the events before it run exactly as on a disarmed
    // system. A degraded system draws nothing.
    resilience::FaultInjector::Tick tick;
    std::size_t due = injector_ && !interpretOnly_
                          ? injector_->advanceToFault(n, tick)
                          : n;
    std::size_t i = 0;
    while (i < n) {
        if (inRegion_) {
            i = consumeRegionRun(batch, i, due);
            if (i == n)
                break;
        }
        const bool fires = i == due;
        if (fires)
            injectEventFaults(tick);
        ExecEvent ev;
        ev.block = &blocks[batch.blockIds[i]];
        ev.takenBranch = batch.takenFlags[i] != 0;
        ev.branchAddr = batch.branchAddrs[i];
        processEvent(ev);
        ++i;
        if (fires)
            due = i + injector_->advanceToFault(n - i, tick);
    }
    return n;
}

SimResult
DynOptSystem::finish()
{
    RSEL_ASSERT(!finished_, "finish() may only be called once");
    finished_ = true;
    SimResult result = metrics_.finalize(prog_, cache_, *selector_);
    result.icacheAccesses = icache_.accesses();
    result.icacheMisses = icache_.misses();
    recovery_.retranslations = cache_.retranslations();
    result.recovery = recovery_;
    if (facts_) {
        // Static duplication accountant: the SimResult's expansion
        // and duplication totals must be re-derivable from the
        // cache contents alone.
        const std::size_t before = verifyDiag_.diagnostics().size();
        analysis::checkDuplicationAccounting(prog_, cache_, result,
                                             verifyDiag_);
        const std::string first =
            verifyDiag_.firstErrorAfter(before);
        if (!first.empty())
            throw analysis::VerifyError(
                "static verifier rejected the final cache state of "
                "selector " + selector_->name() + ": " + first);
    }
    return result;
}

std::string
algorithmName(Algorithm algo)
{
    switch (algo) {
      case Algorithm::Net:         return "NET";
      case Algorithm::Lei:         return "LEI";
      case Algorithm::NetCombined: return "NET+comb";
      case Algorithm::LeiCombined: return "LEI+comb";
      case Algorithm::Mojo:        return "Mojo";
      case Algorithm::Boa:         return "BOA";
      case Algorithm::Wrs:         return "WRS";
    }
    return "unknown";
}

void
attachAlgorithm(DynOptSystem &system, Algorithm algo,
                const SimOptions &opts)
{
    switch (algo) {
      case Algorithm::Net: {
        NetConfig cfg = opts.net;
        cfg.combine = false;
        system.useNet(cfg);
        break;
      }
      case Algorithm::NetCombined: {
        NetConfig cfg = opts.net;
        cfg.combine = true;
        system.useNet(cfg);
        break;
      }
      case Algorithm::Lei: {
        LeiConfig cfg = opts.lei;
        cfg.combine = false;
        system.useLei(cfg);
        break;
      }
      case Algorithm::LeiCombined: {
        LeiConfig cfg = opts.lei;
        cfg.combine = true;
        system.useLei(cfg);
        break;
      }
      case Algorithm::Mojo: {
        NetConfig cfg = opts.net;
        cfg.combine = false;
        if (cfg.exitThreshold == 0)
            cfg.exitThreshold = cfg.hotThreshold / 2;
        system.useNet(cfg);
        break;
      }
      case Algorithm::Boa:
        system.useBoa(opts.boa);
        break;
      case Algorithm::Wrs:
        system.useWrs(opts.wrs);
        break;
    }
}

SimResult
simulate(const Program &prog, Algorithm algo, const SimOptions &opts)
{
    DynOptSystem system(prog, opts.cache, opts.icache);
    attachAlgorithm(system, algo, opts);
    if (opts.verifyRegions)
        system.enableVerifyOnSubmit();
    system.armFaults(opts.faults);

    Executor exec(prog, opts.seed);
    if (opts.dispatch == Dispatch::Batched)
        exec.runBatched(opts.maxEvents, system, opts.batchSize);
    else
        exec.run(opts.maxEvents, system);
    return system.finish();
}

} // namespace rsel
