#include "suites.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <streambuf>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "program/trace_io.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"
#include "workloads/workloads.hpp"

using namespace rsel;

namespace rsbench {

namespace {

/** One (workload, configuration) cell of a suite. */
struct Cell
{
    const WorkloadInfo *workload = nullptr;
    /** The workload's index in suite order (its program and trace). */
    std::size_t program = 0;
    Algorithm algo = Algorithm::Net;
    std::uint64_t events = 0;

    std::string
    name() const
    {
        return workload->name + "/" + algorithmName(algo);
    }
};

/** The 48 cells, workload-major: rselect-sim --algos paper order. */
std::vector<Cell>
suiteCells(Scale scale)
{
    const std::vector<WorkloadInfo> &suite = workloadSuite();
    std::vector<Cell> cells;
    for (std::size_t w = 0; w < suite.size(); ++w) {
        // The self-test keeps every cell but runs a twentieth of it.
        const std::uint64_t events = scale == Scale::Full
                                         ? suite[w].defaultEvents
                                         : suite[w].defaultEvents / 20;
        for (const Algorithm algo : allAlgorithms)
            cells.push_back({&suite[w], w, algo, events});
    }
    return cells;
}

SimOptions
cellOptions(Suite suite, const Cell &cell, const Seeds &seeds)
{
    SimOptions opts;
    opts.maxEvents = cell.events;
    opts.seed = seeds.exec;
    if (suite == Suite::Churn) {
        opts.cache.capacityBytes = 1024;
        opts.cache.policy = CacheLimits::Policy::FullFlush;
    }
    return opts;
}

std::string
printOf(const SimResult &result)
{
    return hex16(fnv1a(testing::resultFingerprint(result)));
}

/** The twelve suite programs, one span per build. */
std::vector<Program>
buildPrograms(const Seeds &seeds, Layer &span)
{
    std::vector<Program> programs;
    programs.reserve(workloadSuite().size());
    for (const WorkloadInfo &w : workloadSuite()) {
        const std::uint64_t start = nowNs();
        programs.push_back(w.build(seeds.build));
        span.add(nowNs() - start);
    }
    return programs;
}

/** A recorded trace: the binary stream and its event count. */
struct Recording
{
    std::string bytes;
    std::uint64_t events = 0;
};

/**
 * Record each program's stream once (its four cells share it) the way
 * rselect-sim --record-trace does, Executor::run into a TraceWriter,
 * but into memory rather than a file.
 */
std::vector<Recording>
recordTraces(const std::vector<Program> &programs,
             const std::vector<Cell> &cells, const Seeds &seeds,
             Layer &span)
{
    std::vector<Recording> traces(programs.size());
    for (const Cell &cell : cells) {
        Recording &rec = traces[cell.program];
        if (!rec.bytes.empty())
            continue;
        const std::uint64_t start = nowNs();
        std::ostringstream os;
        TraceWriter writer(os, programs[cell.program]);
        Executor exec(programs[cell.program], seeds.exec);
        exec.run(cell.events, writer);
        writer.finish();
        rec.events = writer.eventCount();
        rec.bytes = os.str();
        span.add(nowNs() - start);
    }
    return traces;
}

/** A read-only stream buffer over a recorded trace, so every replay
 *  reads it in place instead of copying it. */
class TraceView : public std::streambuf
{
  public:
    explicit TraceView(const std::string &bytes)
    {
        // The get area is typed non-const; nothing writes through it.
        char *begin = const_cast<char *>(bytes.data());
        setg(begin, begin, begin + bytes.size());
    }
};

SimResult
replayCell(const Program &prog, const Recording &trace, Algorithm algo,
           const SimOptions &opts)
{
    TraceView view(trace.bytes);
    std::istream in(&view);
    TraceReplayer replayer(prog, in);
    DynOptSystem system(prog, opts.cache, opts.icache);
    attachAlgorithm(system, algo, opts);
    replayer.runBatched(std::numeric_limits<std::uint64_t>::max(),
                        system);
    return system.finish();
}

/**
 * The selector attachAlgorithm installs for one of the paper's four
 * configurations at default thresholds, built here so it can be
 * wrapped.
 */
std::unique_ptr<RegionSelector>
makeSelector(Algorithm algo, const Program &prog, const CodeCache &cache)
{
    switch (algo) {
      case Algorithm::Net:
      case Algorithm::NetCombined: {
        NetConfig cfg;
        cfg.combine = algo == Algorithm::NetCombined;
        return std::make_unique<NetSelector>(prog, cache, cfg);
      }
      case Algorithm::Lei:
      case Algorithm::LeiCombined: {
        LeiConfig cfg;
        cfg.combine = algo == Algorithm::LeiCombined;
        return std::make_unique<LeiSelector>(prog, cache, cfg);
      }
      default:
        break;
    }
    fatal("the suites run only the paper's four configurations");
}

/** Forwards every call to the real selector, with a span around the
 *  two calls through which it selects regions. */
class TimedSelector : public RegionSelector
{
  public:
    TimedSelector(std::unique_ptr<RegionSelector> inner,
                  SuiteTrace &trace)
        : inner_(std::move(inner)), trace_(trace)
    {}

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &event) override
    {
        const std::uint64_t start = nowNs();
        return account(start, inner_->onInterpreted(event));
    }

    std::optional<RegionSpec>
    onCacheEnter(const BasicBlock &entry) override
    {
        const std::uint64_t start = nowNs();
        return account(start, inner_->onCacheEnter(entry));
    }

    void
    onCacheDisruption(CacheDisruption kind) override
    {
        inner_->onCacheDisruption(kind);
    }

    std::size_t
    maxLiveCounters() const override
    {
        return inner_->maxLiveCounters();
    }

    std::uint64_t
    peakObservedTraceBytes() const override
    {
        return inner_->peakObservedTraceBytes();
    }

    std::uint64_t
    markSweepRegions() const override
    {
        return inner_->markSweepRegions();
    }

    std::uint64_t
    markSweepMultiIterRegions() const override
    {
        return inner_->markSweepMultiIterRegions();
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::optional<RegionSpec>
    account(std::uint64_t start, std::optional<RegionSpec> spec)
    {
        trace_.select.add(nowNs() - start);
        if (spec) {
            ++trace_.regionsOut;
            if (spec->kind == Region::Kind::MultiPath)
                ++trace_.multipathOut;
        }
        return spec;
    }

    std::unique_ptr<RegionSelector> inner_;
    SuiteTrace &trace_;
};

/** Counts the cache's structural mutations. */
class CacheCounter : public CodeCache::Listener
{
  public:
    explicit CacheCounter(SuiteTrace &trace) : trace_(trace) {}

    void
    onRegionInserted(const Region &, std::uint64_t) override
    {
        ++trace_.inserts;
    }

    void
    onRegionDropped(const Region &, std::uint64_t,
                    CodeCache::DropReason) override
    {
        ++trace_.drops;
    }

  private:
    SuiteTrace &trace_;
};

/**
 * Drive `producer` into `system` batch by batch, as runBatched does,
 * with one span per fillBatch and one per onBatch; then finish().
 */
template <typename Producer>
SimResult
driveTraced(Producer &producer, std::uint64_t maxEvents,
            DynOptSystem &system, SuiteTrace &trace)
{
    EventBatch batch;
    batch.reserve(defaultBatchSize);
    std::uint64_t consumed = 0;
    while (consumed < maxEvents) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(defaultBatchSize,
                                    maxEvents - consumed));
        const std::uint64_t filling = nowNs();
        const std::uint64_t filled = producer.fillBatch(batch, want);
        const std::uint64_t dispatching = nowNs();
        trace.produce.add(dispatching - filling);
        if (filled == 0)
            break;
        const std::size_t took = system.onBatch(batch);
        trace.onBatch.add(nowNs() - dispatching);
        consumed += took;
        if (took < batch.size())
            break;
    }
    const std::uint64_t start = nowNs();
    SimResult result = system.finish();
    trace.finalize.add(nowNs() - start);
    return result;
}

/** Feeds one event at a time and classifies it by where it ran. */
class DispositionSink : public ExecutionSink
{
  public:
    DispositionSink(DynOptSystem &system, Dispositions &out)
        : system_(system), out_(out)
    {}

    bool
    onEvent(const ExecEvent &event) override
    {
        const bool more = system_.onEvent(event);
        const StepTrace &step = system_.lastStep();
        if (step.where == StepTrace::Where::Interpreted)
            ++out_.interpreted;
        else if (system_.cache().region(step.region).kind() ==
                 Region::Kind::Trace)
            ++out_.trace;
        else
            ++out_.multipath;
        return more;
    }

  private:
    DynOptSystem &system_;
    Dispositions &out_;
};

} // namespace

const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::Live:   return "suite-live";
      case Suite::Replay: return "suite-replay";
      case Suite::Churn:  return "suite-churn";
    }
    return "unknown";
}

const char *
suiteGoldenSet(Suite suite)
{
    return suite == Suite::Churn ? "churn" : "live";
}

Rep
runSuiteRep(Suite suite, const Seeds &seeds, Scale scale, Prints &prints)
{
    const std::vector<Cell> cells = suiteCells(scale);
    Layer untraced;
    Rep rep;
    const std::uint64_t start = nowNs();
    const std::vector<Program> programs = buildPrograms(seeds, untraced);
    std::vector<Recording> traces;
    if (suite == Suite::Replay)
        traces = recordTraces(programs, cells, seeds, untraced);
    rep.setupS = secondsSince(start);
    std::vector<SimResult> results;
    results.reserve(cells.size());
    for (const Cell &cell : cells) {
        const SimOptions opts = cellOptions(suite, cell, seeds);
        const Program &prog = programs[cell.program];
        results.push_back(suite == Suite::Replay
                              ? replayCell(prog, traces[cell.program],
                                           cell.algo, opts)
                              : simulate(prog, cell.algo, opts));
    }
    rep.wallS = secondsSince(start);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        rep.events += results[i].events;
        rep.cachedInsts += results[i].cachedInsts;
        rep.totalInsts += results[i].totalInsts;
        prints[cells[i].name()] = printOf(results[i]);
    }
    return rep;
}

void
crossCheckSuite(Suite suite, const Seeds &seeds, Scale scale,
                const Prints &prints, bool everyCell, Check &check)
{
    if (suite == Suite::Replay) {
        Prints live;
        runSuiteRep(Suite::Live, seeds, scale, live);
        comparePrints(prints, live, "live == replay", check);
        return;
    }
    const std::vector<Cell> cells = suiteCells(scale);
    std::vector<const Cell *> picked;
    if (everyCell) {
        for (const Cell &cell : cells)
            picked.push_back(&cell);
    } else {
        // One cell per configuration; the seeds pick the workloads, so
        // another seed checks other programs.
        const std::size_t configs = std::size(allAlgorithms);
        const std::size_t programs = cells.size() / configs;
        for (std::size_t k = 0; k < configs; ++k) {
            const std::size_t w =
                (seeds.build + seeds.exec + 5 * k) % programs;
            picked.push_back(&cells[w * configs + k]);
        }
    }
    for (const Cell *cell : picked) {
        const Program prog = cell->workload->build(seeds.build);
        SimOptions opts = cellOptions(suite, *cell, seeds);
        opts.dispatch = Dispatch::PerEvent;
        const std::string print = printOf(simulate(prog, cell->algo, opts));
        const auto it = prints.find(cell->name());
        check.expect(it != prints.end() && it->second == print,
                     std::string(suiteName(suite)) + ": per-event " +
                         cell->name() + " differs from batched");
    }
}

SuiteTrace
traceSuite(Suite suite, const Seeds &seeds, Scale scale)
{
    const std::vector<Cell> cells = suiteCells(scale);
    SuiteTrace trace;
    const std::uint64_t start = nowNs();
    const std::vector<Program> programs = buildPrograms(seeds, trace.build);
    std::vector<Recording> traces;
    if (suite == Suite::Replay) {
        traces = recordTraces(programs, cells, seeds, trace.record);
        for (const Recording &rec : traces) {
            trace.traceBytes += rec.bytes.size();
            trace.recordedEvents += rec.events;
        }
    }
    for (const Cell &cell : cells) {
        const SimOptions opts = cellOptions(suite, cell, seeds);
        const Program &prog = programs[cell.program];
        CacheCounter counter(trace);
        DynOptSystem system(prog, opts.cache, opts.icache);
        system.useCustom([&](const Program &p, const CodeCache &c) {
            return std::make_unique<TimedSelector>(
                makeSelector(cell.algo, p, c), trace);
        });
        system.setCacheListener(&counter);
        SimResult result;
        if (suite == Suite::Replay) {
            TraceView view(traces[cell.program].bytes);
            std::istream in(&view);
            TraceReplayer replayer(prog, in);
            result = driveTraced(replayer,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 system, trace);
        } else {
            Executor exec(prog, opts.seed);
            result = driveTraced(exec, opts.maxEvents, system, trace);
        }
        trace.events += result.events;
        trace.regenerations += result.cacheRegenerations;
        const std::uint64_t hashing = nowNs();
        trace.prints[cell.name()] = printOf(result);
        trace.fingerprint.add(nowNs() - hashing);
    }
    trace.wallS = secondsSince(start);
    return trace;
}

Dispositions
countDispositions(const Seeds &seeds, Scale scale)
{
    const std::vector<Cell> cells = suiteCells(scale);
    Layer untraced;
    const std::vector<Program> programs = buildPrograms(seeds, untraced);
    Dispositions out;
    for (const Cell &cell : cells) {
        const SimOptions opts = cellOptions(Suite::Live, cell, seeds);
        const Program &prog = programs[cell.program];
        DynOptSystem system(prog, opts.cache, opts.icache);
        attachAlgorithm(system, cell.algo, opts);
        DispositionSink sink(system, out);
        Executor exec(prog, opts.seed);
        exec.run(opts.maxEvents, sink);
        out.prints[cell.name()] = printOf(system.finish());
    }
    return out;
}

} // namespace rsbench
