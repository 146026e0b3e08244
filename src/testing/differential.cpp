#include "testing/differential.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <sstream>
#include <string_view>

#include "analysis/region_verifier.hpp"
#include "dynopt/dynopt_system.hpp"
#include "program/trace_io.hpp"
#include "selection/lei_selector.hpp"
#include "selection/net_selector.hpp"
#include "support/error.hpp"
#include "testing/cfg_oracle.hpp"
#include "testing/invariant_sink.hpp"
#include "testing/random_program.hpp"

namespace rsel {
namespace testing {

const char *
brokenModeName(BrokenMode mode)
{
    switch (mode) {
    case BrokenMode::None:
        return "none";
    case BrokenMode::Disconnect:
        return "disconnect";
    case BrokenMode::Resubmit:
        return "resubmit";
    case BrokenMode::Alias:
        return "alias";
    case BrokenMode::Noncyclic:
        return "noncyclic";
    }
    return "none";
}

BrokenMode
parseBrokenMode(const std::string &text)
{
    if (text == "none")
        return BrokenMode::None;
    if (text == "disconnect")
        return BrokenMode::Disconnect;
    if (text == "resubmit")
        return BrokenMode::Resubmit;
    if (text == "alias")
        return BrokenMode::Alias;
    if (text == "noncyclic")
        return BrokenMode::Noncyclic;
    fatal("unknown --break-selector mode \"" + text +
          "\" (expected none, disconnect, resubmit, alias or "
          "noncyclic)");
}

namespace {

/**
 * A deliberately buggy selector: NET with a test-only mutation, used
 * to prove the invariant oracle rejects bad selectors instead of
 * rubber-stamping everything.
 */
class BrokenSelector : public RegionSelector
{
  public:
    BrokenSelector(const Program &prog, const CodeCache &cache,
                   BrokenMode mode)
        : oracle_(prog), prog_(prog), cache_(cache), mode_(mode)
    {
        if (mode_ == BrokenMode::Noncyclic) {
            // The point of this mode is a bad LEI trace, so the
            // sabotaged inner selector must be LEI itself.
            inner_ = std::make_unique<LeiSelector>(prog, cache,
                                                   leiCfg_);
            facts_ = analysis::buildProgramFacts(prog);
        } else {
            inner_ = std::make_unique<NetSelector>(prog, cache,
                                                   NetConfig{});
        }
        if (mode_ == BrokenMode::Alias)
            clone_ = prog;
    }

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override
    {
        if (mode_ == BrokenMode::Resubmit && pendingResubmit_) {
            pendingResubmit_ = false;
            return lastSpec_;
        }
        std::optional<RegionSpec> spec = inner_->onInterpreted(event);
        if (spec)
            sabotage(*spec);
        return spec;
    }

    std::optional<RegionSpec>
    onCacheEnter(const BasicBlock &entry) override
    {
        std::optional<RegionSpec> spec = inner_->onCacheEnter(entry);
        if (spec)
            sabotage(*spec);
        return spec;
    }

    std::size_t
    maxLiveCounters() const override
    {
        return inner_->maxLiveCounters();
    }

    std::string
    name() const override
    {
        // Noncyclic masquerades as a buggy LEI: the lei-cyclicity
        // pass only applies to traces claiming to come from LEI.
        if (mode_ == BrokenMode::Noncyclic)
            return "LEI";
        return std::string("BROKEN-") + brokenModeName(mode_);
    }

    /** Trace-size limit of the sabotaged LEI (Noncyclic mode). */
    std::uint32_t maxTraceInsts() const { return leiCfg_.maxTraceInsts; }

  private:
    void
    sabotage(RegionSpec &spec)
    {
        switch (mode_) {
        case BrokenMode::None:
            break;
        case BrokenMode::Resubmit:
            lastSpec_ = spec;
            pendingResubmit_ = true;
            break;
        case BrokenMode::Disconnect:
            sabotageDisconnect(spec);
            break;
        case BrokenMode::Alias:
            // Swap every member for the same-id block of a private
            // program copy. Ids, addresses and sizes all match, so
            // the simulated execution is bit-identical and the
            // dynamic oracle sees nothing; only the static
            // region-members pass (object identity against the real
            // program) rejects it.
            for (const BasicBlock *&b : spec.blocks)
                b = &clone_.block(b->id());
            break;
        case BrokenMode::Noncyclic:
            sabotageNoncyclic(spec);
            break;
        }
    }

    void
    sabotageDisconnect(RegionSpec &spec)
    {
        // Append a block that is neither a member nor a legal CFG
        // successor of the trace tail. Region construction does not
        // validate connectivity, so only the testing oracle's
        // region-legality invariant can catch this.
        if (spec.kind != Region::Kind::Trace || spec.blocks.empty())
            return;
        const BasicBlock &tail = *spec.blocks.back();
        for (const BasicBlock &cand : prog_.blocks()) {
            bool member = false;
            for (const BasicBlock *b : spec.blocks)
                if (b->id() == cand.id())
                    member = true;
            if (member || oracle_.legalEdge(tail, cand))
                continue;
            spec.blocks.push_back(&cand);
            return;
        }
    }

    void
    sabotageNoncyclic(RegionSpec &spec)
    {
        // Truncate the LEI trace to a proper prefix that the
        // lei-cyclicity pass cannot excuse: acyclic, tail can fall
        // through, no cached successor, under the size limit. Such a
        // prefix is still a connected, single-entrance, perfectly
        // executable trace — the dynamic oracle accepts it — but it
        // violates LEI's cyclicity guarantee (paper Figures 5/6).
        // The static pass itself is the cheapest way to find one.
        if (spec.kind != Region::Kind::Trace || spec.blocks.size() < 2)
            return;
        analysis::RegionVerifier verifier(facts_);
        for (std::size_t len = spec.blocks.size() - 1; len >= 1;
             --len) {
            RegionSpec cand;
            cand.kind = Region::Kind::Trace;
            cand.blocks.assign(spec.blocks.begin(),
                               spec.blocks.begin() + len);
            analysis::RegionVerifyContext ctx;
            ctx.cache = &cache_;
            ctx.selector = "LEI";
            ctx.maxTraceInsts = leiCfg_.maxTraceInsts;
            ctx.id = cache_.nextRegionId();
            analysis::DiagnosticEngine diag;
            verifier.runOnSpec(cand, ctx, diag);
            for (const analysis::Diagnostic &d : diag.diagnostics()) {
                if (d.pass == "lei-cyclicity" &&
                    d.severity == analysis::Severity::Error) {
                    spec = std::move(cand);
                    return;
                }
            }
        }
        // Every prefix is excused (e.g. a two-block trace stopped by
        // history gaps); emit the honest trace this time.
    }

    std::unique_ptr<RegionSelector> inner_;
    CfgOracle oracle_;
    const Program &prog_;
    const CodeCache &cache_;
    Program clone_;
    /** The program's facts (Noncyclic mode). */
    analysis::ProgramFacts facts_;
    LeiConfig leiCfg_;
    BrokenMode mode_;
    RegionSpec lastSpec_;
    bool pendingResubmit_ = false;
};

/** Reference sink: records the trace and the stream facts. */
class RefSink : public ExecutionSink
{
  public:
    RefSink(std::ostream &os, const Program &prog) : writer_(os, prog)
    {
    }

    bool
    onEvent(const ExecEvent &ev) override
    {
        hash_ = fnvEvent(hash_, ev.block->id(), ev.takenBranch);
        ++events_;
        insts_ += ev.block->instCount();
        return writer_.onEvent(ev);
    }

    void finish() { writer_.finish(); }

    std::uint64_t events_ = 0;
    std::uint64_t insts_ = 0;
    std::uint64_t hash_ = fnvOffset;

  private:
    TraceWriter writer_;
};

SimOptions
makeOptions(const GenSpec &spec)
{
    SimOptions opts;
    opts.maxEvents = spec.events;
    opts.seed = spec.execSeed;
    opts.cache.capacityBytes =
        cacheBytesFromKb(spec.cacheKb, "spec field \"cachekb\"");
    return opts;
}

/** First line where two fingerprints differ ("live | replay"). */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "(no difference found)";
        if (!ga || !gb || la != lb)
            return (ga ? la : "<end>") + " | " + (gb ? lb : "<end>");
    }
}

} // namespace

namespace {

/** Counts the characters a FingerprintWriter would write. */
struct FingerprintLength
{
    std::size_t n = 0;

    void text(std::string_view s) { n += s.size(); }

    void
    number(std::uint64_t v)
    {
        char buf[20];
        n += static_cast<std::size_t>(
            std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
    }
};

/** Writes the fingerprint into storage FingerprintLength sized. */
struct FingerprintWriter
{
    char *p;

    void text(std::string_view s) { p = std::copy(s.begin(), s.end(), p); }

    /** @pre 20 characters of room: the widest uint64. */
    void number(std::uint64_t v) { p = std::to_chars(p, p + 20, v).ptr; }
};

/** Emit the fingerprint text of `r` into `out`. */
template <typename Out>
void
emitFingerprint(const SimResult &r, Out &out)
{
    const auto line = [&out](std::string_view name, std::uint64_t v) {
        out.text(name);
        out.number(v);
        out.text("\n");
    };
    out.text("selector=");
    out.text(r.selector);
    out.text("\n");
    line("events=", r.events);
    line("totalInsts=", r.totalInsts);
    line("cachedInsts=", r.cachedInsts);
    line("interpretedInsts=", r.interpretedInsts);
    line("regionCount=", r.regionCount);
    line("expansionInsts=", r.expansionInsts);
    line("expansionBytes=", r.expansionBytes);
    line("exitStubs=", r.exitStubs);
    line("estimatedCacheBytes=", r.estimatedCacheBytes);
    line("icacheAccesses=", r.icacheAccesses);
    line("icacheMisses=", r.icacheMisses);
    line("cacheCapacityBytes=", r.cacheCapacityBytes);
    line("cacheEvictions=", r.cacheEvictions);
    line("cacheFlushes=", r.cacheFlushes);
    line("cacheRegenerations=", r.cacheRegenerations);
    line("cacheLiveBytes=", r.cacheLiveBytes);
    line("regionTransitions=", r.regionTransitions);
    line("interRegionLinks=", r.interRegionLinks);
    line("regionExecutions=", r.regionExecutions);
    line("cycleTerminations=", r.cycleTerminations);
    line("spanningRegions=", r.spanningRegions);
    line("coverSet90=", r.coverSet90);
    line("coverSetSaturated=", r.coverSetSaturated ? 1 : 0);
    line("maxLiveCounters=", r.maxLiveCounters);
    line("peakObservedTraceBytes=", r.peakObservedTraceBytes);
    line("markSweepRegions=", r.markSweepRegions);
    line("markSweepMultiIterRegions=", r.markSweepMultiIterRegions);
    line("exitDominatedRegions=", r.exitDominatedRegions);
    line("exitDominatedDupInsts=", r.exitDominatedDupInsts);
    line("duplicatedInsts=", r.duplicatedInsts);
    line("regionsWithInternalCycle=", r.regionsWithInternalCycle);
    line("licmCapableRegions=", r.licmCapableRegions);
    line("dualSplitRegions=", r.dualSplitRegions);
    line("joinBlocksTotal=", r.joinBlocksTotal);
    line("faultsInjected=", r.recovery.faultsInjected);
    line("translationFailures=", r.recovery.translationFailures);
    line("blockInvalidations=", r.recovery.blockInvalidations);
    line("regionsInvalidated=", r.recovery.regionsInvalidated);
    line("flushStorms=", r.recovery.flushStorms);
    line("selectorResets=", r.recovery.selectorResets);
    line("retries=", r.recovery.retries);
    line("backoffSuppressed=", r.recovery.backoffSuppressed);
    line("blacklistSuppressed=", r.recovery.blacklistSuppressed);
    line("blacklistedEntrances=", r.recovery.blacklistedEntrances);
    line("retranslations=", r.recovery.retranslations);
    for (const RegionStats &s : r.regions) {
        out.text("region");
        out.number(s.id);
        out.text(s.kind == Region::Kind::Trace ? "=T," : "=M,");
        for (const std::uint64_t v :
             {std::uint64_t{s.blockCount}, s.instCount, s.byteSize,
              std::uint64_t{s.exitStubs},
              std::uint64_t{s.spansCycle ? 1u : 0u}, s.executedInsts,
              s.executions}) {
            out.number(v);
            out.text(",");
        }
        out.number(s.cycleEnds);
        out.text("\n");
    }
}

} // namespace

std::string
resultFingerprint(const SimResult &r)
{
    // Measure, then write into one exactly-sized string: the service
    // keeps every tenant's fingerprint.
    FingerprintLength length;
    emitFingerprint(r, length);
    std::string text(length.n, '\0');
    FingerprintWriter writer{text.data()};
    emitFingerprint(r, writer);
    RSEL_ASSERT(writer.p == text.data() + text.size(),
                "fingerprint length and text disagree");
    return text;
}

DiffReport
runDifferential(const GenSpec &rawSpec, BrokenMode broken, bool verify,
                const resilience::FaultPlan &rawFaults)
{
    GenSpec spec = rawSpec;
    spec.clamp();
    resilience::FaultPlan faults = rawFaults;
    faults.clamp();
    // Alias and Noncyclic are invisible to the dynamic oracle by
    // construction; they only make sense with the static verifier on.
    const bool staticOnlyBug = broken == BrokenMode::Alias ||
                               broken == BrokenMode::Noncyclic;
    DiffReport report;
    try {
        // 1. Generator determinism and save/load round trip.
        const Program prog = generateProgram(spec);
        report.programBlocks =
            static_cast<std::uint32_t>(prog.blocks().size());
        std::ostringstream text1, text2;
        saveProgram(prog, text1);
        {
            const Program again = generateProgram(spec);
            saveProgram(again, text2);
        }
        if (text1.str() != text2.str()) {
            report.error = "generator is not deterministic: two "
                           "builds of the same spec differ";
            return report;
        }
        {
            std::istringstream in(text1.str());
            const Program loaded = loadProgram(in);
            std::ostringstream text3;
            saveProgram(loaded, text3);
            if (text1.str() != text3.str()) {
                report.error = "save/load round trip changed the "
                               "program text";
                return report;
            }
        }

        // 2. Reference architectural run, recorded.
        std::ostringstream traceOs;
        RefSink ref(traceOs, prog);
        {
            Executor exec(prog, spec.execSeed);
            exec.run(spec.events, ref);
            ref.finish();
        }
        const std::string trace = traceOs.str();
        const SimOptions opts = makeOptions(spec);

        if (broken != BrokenMode::None) {
            // Only the sabotaged selector: prove the oracle catches
            // it. An empty report here means it was NOT caught.
            DynOptSystem sys(prog); // unbounded, so Resubmit asserts
            sys.useCustom([broken](const Program &p,
                                   const CodeCache &c) {
                return std::make_unique<BrokenSelector>(p, c, broken);
            });
            if (verify || staticOnlyBug)
                sys.enableVerifyOnSubmit();
            if (broken == BrokenMode::Noncyclic)
                sys.setLeiTraceLimitHint(
                    static_cast<const BrokenSelector &>(
                        sys.selector()).maxTraceInsts());
            InvariantSink inv(prog, sys);
            try {
                Executor exec(prog, spec.execSeed);
                exec.run(spec.events, inv);
                inv.finish();
            } catch (const std::exception &e) {
                report.error = std::string("broken selector (") +
                               brokenModeName(broken) +
                               ") caught: " + e.what();
            }
            return report;
        }

        // 3-5. The live + replay matrix over every selector.
        bool haveCross = false;
        std::uint64_t crossInsts = 0;
        for (const Algorithm algo : allSelectors) {
            const std::string name = algorithmName(algo);
            SimResult live;
            try {
                Executor exec(prog, spec.execSeed);
                DynOptSystem sys(prog, opts.cache, opts.icache);
                attachAlgorithm(sys, algo, opts);
                if (verify)
                    sys.enableVerifyOnSubmit();
                sys.armFaults(faults);
                InvariantSink inv(prog, sys);
                exec.run(spec.events, inv);
                live = inv.finish();
                if (inv.events() != ref.events_ ||
                    inv.streamHash() != ref.hash_) {
                    report.error =
                        name + ": architectural stream diverged "
                               "from the raw executor (transparency)";
                    return report;
                }
            } catch (const std::exception &e) {
                report.error = name + " live run: " + e.what();
                return report;
            }

            SimResult replayed;
            try {
                std::istringstream is(trace);
                TraceReplayer replayer(prog, is);
                DynOptSystem sys(prog, opts.cache, opts.icache);
                attachAlgorithm(sys, algo, opts);
                if (verify)
                    sys.enableVerifyOnSubmit();
                sys.armFaults(faults);
                InvariantSink inv(prog, sys);
                replayer.run(spec.events, inv);
                replayed = inv.finish();
            } catch (const std::exception &e) {
                report.error = name + " replay run: " + e.what();
                return report;
            }

            const std::string fpLive = resultFingerprint(live);
            const std::string fpReplay = resultFingerprint(replayed);
            if (fpLive != fpReplay) {
                report.error =
                    name + ": record->replay round trip diverged: " +
                    firstDiff(fpLive, fpReplay);
                return report;
            }

            // Batched dispatch legs: the same simulation driven
            // through EventBatch deliveries must be byte-identical to
            // the per-event run. A prime batch size guarantees batch
            // boundaries land mid-region and mid-trace-formation.
            constexpr std::size_t batchedLegSize = 509;
            SimResult batchedLive;
            try {
                Executor exec(prog, spec.execSeed);
                DynOptSystem sys(prog, opts.cache, opts.icache);
                attachAlgorithm(sys, algo, opts);
                if (verify)
                    sys.enableVerifyOnSubmit();
                sys.armFaults(faults);
                exec.runBatched(spec.events, sys, batchedLegSize);
                batchedLive = sys.finish();
            } catch (const std::exception &e) {
                report.error = name + " batched live run: " + e.what();
                return report;
            }
            if (const std::string fp = resultFingerprint(batchedLive);
                fp != fpLive) {
                report.error =
                    name + ": batched dispatch diverged from the "
                           "per-event run: " + firstDiff(fpLive, fp);
                return report;
            }

            SimResult batchedReplay;
            try {
                std::istringstream is(trace);
                TraceReplayer replayer(prog, is);
                DynOptSystem sys(prog, opts.cache, opts.icache);
                attachAlgorithm(sys, algo, opts);
                if (verify)
                    sys.enableVerifyOnSubmit();
                sys.armFaults(faults);
                replayer.runBatched(spec.events, sys, batchedLegSize);
                batchedReplay = sys.finish();
            } catch (const std::exception &e) {
                report.error =
                    name + " batched replay run: " + e.what();
                return report;
            }
            if (const std::string fp =
                    resultFingerprint(batchedReplay);
                fp != fpLive) {
                report.error =
                    name + ": batched replay diverged from the "
                           "per-event run: " + firstDiff(fpLive, fp);
                return report;
            }
            if (!haveCross) {
                haveCross = true;
                crossInsts = live.totalInsts;
            } else if (live.totalInsts != crossInsts) {
                report.error =
                    name + ": architectural instruction count "
                           "disagrees across selectors (" +
                    std::to_string(live.totalInsts) + " vs " +
                    std::to_string(crossInsts) + ")";
                return report;
            }
            if (live.events != ref.events_) {
                report.error = name + ": event count disagrees with "
                                      "the reference run";
                return report;
            }
        }
    } catch (const std::exception &e) {
        report.error = std::string("unexpected failure: ") + e.what();
    }
    return report;
}

} // namespace testing
} // namespace rsel
