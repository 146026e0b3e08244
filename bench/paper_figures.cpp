/**
 * @file
 * The paper's evaluation as one declarative table: Figures 7-19, the
 * text tables of Sections 3.2, 4.2.3, 4.3, 5 and 6, the two
 * validation tables (modelled I-cache locality, footnote 9's
 * inter-region links), and the sweeps over what the paper fixed or
 * deferred: the Section 4.3 T_prof/T_min footnote, Section 2.3's
 * bounded cache, the Section 3.2 buffer and thresholds, and hit rate
 * under injected faults.
 *
 * Each row of `figures` prints one table: its name, title, columns
 * and the published shape it should reproduce. A column is a header,
 * a per-workload cell and how it folds over the suite (blank, mean
 * or sum) in the "average" row; a figure that summarises differently
 * carries its own summary function.
 *
 * A figure may carry an options override, which adjusts every cell's
 * SimOptions before it runs. The override also sees the workload's
 * results under the base options, so the bounded cache can size
 * itself from NET's unbounded footprint. A sweep instead lists
 * variants, each a label, an override and the algorithm its columns
 * read, and prints one row per variant with every column folded over
 * the suite. Figures under the same override share one SuiteRunner,
 * so each (override, algorithm) suite sweep runs at most once.
 *
 *   paper_figures [bench flags] [figure ...]
 *
 * With no names, every figure prints in table order.
 */

#include <functional>
#include <iostream>
#include <map>
#include <numeric>

#include "bench_util.hpp"
#include "support/exit_codes.hpp"

using namespace rsel;
using namespace rsel::bench;

namespace {

using enum Algorithm;

/** One workload's results under any algorithm (swept on first use). */
struct Runs
{
    SuiteRunner &runner;
    std::size_t workload;
    /** The runner of the base options (read by `relBase`). */
    SuiteRunner &base;
    /** The algorithm a sweep variant names (read by `own`). */
    Algorithm algo = Net;

    const SimResult &
    operator()(Algorithm a) const
    {
        return runner.results(a)[workload];
    }
};

using R = const Runs &;

/** Metric `M` (a SimResult field or accessor) of algorithm `A`. */
template <Algorithm A, auto M>
double
of(R r)
{
    return static_cast<double>(std::invoke(M, r(A)));
}

/** Metric `M` of `A` relative to `B` (the paper's "A/B" columns). */
template <Algorithm A, Algorithm B, auto M>
double
rel(R r)
{
    return ratio(of<A, M>(r), of<B, M>(r));
}

/** `rel` with `B` read under the base options: for a sweep whose
 *  override only `A` reads, so `B` runs once, not once per row. */
template <Algorithm A, Algorithm B, auto M>
double
relBase(R r)
{
    return ratio(of<A, M>(r), of<B, M>(Runs{r.base, r.workload, r.base}));
}

/** Metric `M` pooled over two algorithms. */
template <Algorithm A, Algorithm B, auto M>
double
sum(R r)
{
    return of<A, M>(r) + of<B, M>(r);
}

/** Pooled `M` of the combined algorithms relative to the base ones. */
template <auto M>
double
combinedVsBase(R r)
{
    return ratio(sum<NetCombined, LeiCombined, M>(r), sum<Net, Lei, M>(r));
}

/** Percentage-point increase of ratio `M` from `B` to `A`. */
template <Algorithm A, Algorithm B, auto M>
double
gainPp(R r)
{
    return (of<A, M>(r) - of<B, M>(r)) * 100.0;
}

/** Metric `M` of the algorithm the sweep variant names. */
template <auto M>
double
own(R r)
{
    return static_cast<double>(std::invoke(M, r(r.algo)));
}

/** A RecoveryStats counter as a SimResult metric. */
template <std::uint64_t resilience::RecoveryStats::*F>
std::uint64_t
recovered(const SimResult &r)
{
    return r.recovery.*F;
}

/**
 * An options override: adjusts one workload's cell options before
 * they run. `base` is the workload under the unadjusted options.
 */
using Override = void (*)(SimOptions &, R base);

// Tight geometry: the synthetic hot footprints are ~100x smaller
// than SPECint2000's, so the modelled cache must be tighter still
// for separation to show.
void
tinyICache(SimOptions &o, R)
{
    o.icache = ICacheConfig{1024, 32, 1};
}

/** Section 2.3: a FIFO cache at half of NET's unbounded footprint. */
void
halfNetFootprint(SimOptions &o, R base)
{
    o.cache.capacityBytes = base(Net).estimatedCacheBytes / 2;
    o.cache.policy = CacheLimits::Policy::Fifo;
}

template <std::uint32_t TProf, std::uint32_t TMin>
void
window(SimOptions &o, R)
{
    o.net.profWindow = o.lei.profWindow = TProf;
    o.net.minOccur = o.lei.minOccur = TMin;
}

template <std::size_t Capacity>
void
buffer(SimOptions &o, R)
{
    o.lei.bufferCapacity = Capacity;
}

template <std::uint32_t T>
void
netThreshold(SimOptions &o, R)
{
    o.net.hotThreshold = T;
}

template <std::uint32_t T>
void
leiThreshold(SimOptions &o, R)
{
    o.lei.hotThreshold = T;
}

/** A fault plan: translation-failure percentage, then invalidations,
 *  flush storms and selector resets per 100k events. */
template <std::uint32_t TFail, std::uint32_t Inval, std::uint32_t Flush,
          std::uint32_t Reset>
void
faults(SimOptions &o, R)
{
    o.faults.pTranslationFail = TFail;
    o.faults.invalidateRate = Inval;
    o.faults.flushRate = Flush;
    o.faults.resetRate = Reset;
}

/** How a column prints its numbers. */
struct Fmt
{
    int decimals;
    bool percent;
};

constexpr Fmt Count{0, false}, Tenths{1, false}, Pct{1, true},
    Pct2{2, true};

std::string
format(Fmt fmt, double v)
{
    return fmt.percent ? formatPercent(v, fmt.decimals)
                       : formatDouble(v, fmt.decimals);
}

/** How a column folds over the suite: in the default summary row,
 *  and in every row of a sweep. */
enum class Summary { Blank, Mean, Sum };
using enum Summary;

struct Column
{
    std::string header;
    Fmt fmt;
    double (*cell)(R);
    Summary summary = Blank;
};

/** Every cell value of a table, column-major, in suite order. */
using Values = std::vector<std::vector<double>>;

/** One row of a sweep: the suite under one override. */
struct Variant
{
    std::string label;
    Override adjust;
    /** The algorithm `own` columns read. */
    Algorithm algo = Net;
};

struct Figure
{
    std::string name;
    std::string title;
    std::vector<Column> columns;
    std::string note;
    /** Replaces the "average" row when set. */
    std::vector<std::string> (*summary)(const Values &) = nullptr;
    /** Applied to every cell's options (nullptr = the base options). */
    Override adjust = nullptr;
    /** Header of the row labels: workloads, or a sweep's variants. */
    std::string rowHeader = "benchmark";
    /** A sweep: one row per variant in place of one per workload. */
    std::vector<Variant> variants = {};
};

/** Section 4.2.3: suite totals of both counts, and their ratio. */
std::vector<std::string>
markingTotals(const Values &cols)
{
    const double marked =
        std::accumulate(cols[0].begin(), cols[0].end(), 0.0);
    const double multi =
        std::accumulate(cols[1].begin(), cols[1].end(), 0.0);
    return {"total", format(Count, marked), format(Count, multi),
            format(Pct, ratio(multi, marked, 0.0))};
}

/** Section 5: each column's mean ratio to column 0 (NET). */
std::vector<std::string>
meanVsFirst(const Values &cols)
{
    std::vector<std::string> row{"avg vs NET", "100%"};
    for (std::size_t c = 1; c < cols.size(); ++c) {
        std::vector<double> ratios;
        for (std::size_t w = 0; w < cols[c].size(); ++w)
            ratios.push_back(ratio(cols[c][w], cols[0][w]));
        row.push_back(format(Pct, mean(ratios)));
    }
    return row;
}

/** Bounded cache: mean regenerations to a tenth, hit rates blank. */
std::vector<std::string>
meanRegenerations(const Values &cols)
{
    std::vector<std::string> row{"average"};
    for (std::size_t c = 0; c < cols.size(); ++c)
        row.push_back(c < 4 ? format(Tenths, mean(cols[c])) : "");
    return row;
}

constexpr auto Cover = &SimResult::coverSet90;
constexpr auto Expansion = &SimResult::expansionInsts;
constexpr auto Transitions = &SimResult::regionTransitions;
constexpr auto Stubs = &SimResult::exitStubs;
constexpr auto Links = &SimResult::interRegionLinks;
constexpr auto Marked = &SimResult::markSweepRegions;
constexpr auto MultiSweep = &SimResult::markSweepMultiIterRegions;
constexpr auto ExitDomRegions = &SimResult::exitDominatedRegions;
constexpr auto ExitDomDup = &SimResult::exitDominatedDupInsts;
constexpr auto Spanned = &SimResult::spannedCycleRatio;
constexpr auto Executed = &SimResult::executedCycleRatio;
constexpr auto Regens = &SimResult::cacheRegenerations;
using resilience::RecoveryStats;
constexpr auto Faults = &recovered<&RecoveryStats::faultsInjected>;
constexpr auto Invalidated = &recovered<&RecoveryStats::regionsInvalidated>;
constexpr auto Retrans = &recovered<&RecoveryStats::retranslations>;
constexpr auto Blacklisted =
    &recovered<&RecoveryStats::blacklistedEntrances>;

const std::vector<Figure> figures = {
    {"fig07_spanning_cycles",
     "Figure 7 — cycle spanning, LEI relative to NET (percentage-point "
     "increase)",
     {{"spanned NET", Pct, of<Net, Spanned>},
      {"spanned LEI", Pct, of<Lei, Spanned>},
      {"spanned +pp", Tenths, gainPp<Lei, Net, Spanned>, Mean},
      {"executed NET", Pct, of<Net, Executed>},
      {"executed LEI", Pct, of<Lei, Executed>},
      {"executed +pp", Tenths, gainPp<Lei, Net, Executed>, Mean}},
     "LEI spans more cycles than NET on every benchmark, raising the "
     "spanned-cycle ratio by ~5 points overall; the executed-cycle ratio rises "
     "with it (the two are highly correlated), with crafty and parser gaining "
     "least."},

    {"fig08_expansion_transitions",
     "Figure 8 — LEI relative to NET",
     {{"expansion NET", Count, of<Net, Expansion>},
      {"expansion LEI", Count, of<Lei, Expansion>},
      {"expansion ratio", Pct, rel<Lei, Net, Expansion>, Mean},
      {"transitions NET", Count, of<Net, Transitions>},
      {"transitions LEI", Count, of<Lei, Transitions>},
      {"transitions ratio", Pct, rel<Lei, Net, Transitions>, Mean}},
     "LEI averages 92% of NET's code expansion (crafty is the exception at "
     ">=100%) and 80% of NET's region transitions (parser gains nothing); the "
     "benchmarks where LEI spans the most additional cycles improve the most."},

    {"fig09_cover_set",
     "Figure 9 — 90% cover set size (number of regions)",
     {{"NET", Count, of<Net, Cover>},
      {"LEI", Count, of<Lei, Cover>},
      {"LEI/NET", Pct, rel<Lei, Net, Cover>, Mean}},
     "LEI requires a significantly smaller 90% cover set on every benchmark, "
     "an 18% average reduction; the cover-set size is the paper's proxy for "
     "real-system performance."},

    {"fig10_counters",
     "Figure 10 — peak live counters, LEI relative to NET",
     {{"NET", Count, of<Net, &SimResult::maxLiveCounters>},
      {"LEI", Count, of<Lei, &SimResult::maxLiveCounters>},
      {"LEI/NET", Pct, rel<Lei, Net, &SimResult::maxLiveCounters>,
       Mean}},
     "LEI needs only about two-thirds of NET's counter memory: a counter "
     "requires not just a backward-branch or cache-exit target but one still "
     "present in the 500-entry history buffer. (Synthetic-suite caveat: our "
     "programs are far smaller than SPECint2000, so fewer cold targets exist "
     "for NET to waste counters on and the ratio is noisier — see "
     "EXPERIMENTS.md.)"},

    {"fig11_exit_dominated_dup",
     "Figure 11 — exit-dominated duplication (% of selected instructions)",
     {{"NET", Pct, of<Net, &SimResult::exitDominatedDupRatio>, Mean},
      {"LEI", Pct, of<Lei, &SimResult::exitDominatedDupRatio>, Mean}},
     "exit-dominated traces duplicate 1-7% of all selected instructions; LEI "
     "usually shows more exit-dominated duplication than NET (the same "
     "opportunity exists even though LEI selects less code overall)."},

    {"fig12_exit_dominated_traces",
     "Figure 12 — exit-dominated traces (% of regions)",
     {{"NET", Pct, of<Net, &SimResult::exitDominatedRegionRatio>, Mean},
      {"LEI", Pct, of<Lei, &SimResult::exitDominatedRegionRatio>,
       Mean}},
     "on average 15% of NET traces and 22% of LEI traces are exit-dominated "
     "(typically 10-25% per benchmark), with eon a clear outlier because of "
     "its widely shared constructor traces."},

    {"fig16_combination_transitions",
     "Figure 16 — region transitions, combined relative to base",
     {{"NET", Count, of<Net, Transitions>},
      {"comb NET", Count, of<NetCombined, Transitions>},
      {"combNET/NET", Pct, rel<NetCombined, Net, Transitions>, Mean},
      {"LEI", Count, of<Lei, Transitions>},
      {"comb LEI", Count, of<LeiCombined, Transitions>},
      {"combLEI/LEI", Pct, rel<LeiCombined, Lei, Transitions>, Mean}},
     "combining NET traces leaves 85% of the transitions on average (vortex "
     "may rise ~1%); combining LEI traces leaves only 64% — LEI traces are "
     "especially well-suited to combination."},

    {"fig17_combination_cover_set",
     "Figure 17 — 90% cover set size, combined relative to base",
     {{"NET", Count, of<Net, Cover>},
      {"comb NET", Count, of<NetCombined, Cover>},
      {"combNET/NET", Pct, rel<NetCombined, Net, Cover>, Mean},
      {"LEI", Count, of<Lei, Cover>},
      {"comb LEI", Count, of<LeiCombined, Cover>},
      {"combLEI/LEI", Pct, rel<LeiCombined, Lei, Cover>, Mean}},
     "combination shrinks NET cover sets by 15% and LEI cover sets by 28% on "
     "average; gzip under NET is the only increase (one trace) and bzip2 the "
     "only case where LEI benefits less than NET (its LEI cover set is already "
     "tiny)."},

    {"fig18_combination_memory",
     "Figure 18 — peak observed-trace storage (% of estimated cache size)",
     {{"comb NET bytes", Count,
       of<NetCombined, &SimResult::peakObservedTraceBytes>},
      {"comb NET %", Pct,
       of<NetCombined, &SimResult::observedMemoryRatio>, Mean},
      {"comb LEI bytes", Count,
       of<LeiCombined, &SimResult::peakObservedTraceBytes>},
      {"comb LEI %", Pct,
       of<LeiCombined, &SimResult::observedMemoryRatio>, Mean}},
     "average profiling-memory overhead is 6% of the cache for combined NET "
     "(never above 12%) and 13% for combined LEI (never above 18%); LEI needs "
     "more because its traces are longer and its entrances stay under "
     "observation longer."},

    {"fig19_combination_exit_stubs",
     "Figure 19 — exit stubs, combined relative to base",
     {{"NET", Count, of<Net, Stubs>},
      {"comb NET", Count, of<NetCombined, Stubs>},
      {"combNET/NET", Pct, rel<NetCombined, Net, Stubs>, Mean},
      {"LEI", Count, of<Lei, Stubs>},
      {"comb LEI", Count, of<LeiCombined, Stubs>},
      {"combLEI/LEI", Pct, rel<LeiCombined, Lei, Stubs>, Mean}},
     "combination eliminates 18% of NET's exit stubs and 26% of LEI's; "
     "together with selecting fewer instructions this shrinks the cache by 7% "
     "(NET) and 9% (LEI), offsetting the Figure 18 profiling memory."},

    {"table_hit_rate",
     "Hit rate (% of instructions executed from the cache)",
     {{"NET", Pct2, of<Net, &SimResult::hitRate>, Mean},
      {"LEI", Pct2, of<Lei, &SimResult::hitRate>, Mean},
      {"comb NET", Pct2, of<NetCombined, &SimResult::hitRate>, Mean},
      {"comb LEI", Pct2, of<LeiCombined, &SimResult::hitRate>, Mean}},
     "hit rates stay above 98-99% everywhere; LEI is slightly below NET (mcf "
     "99.80->98.31, gcc 99.37->98.98 are the biggest drops), combined NET is "
     "slightly above NET, combined LEI averages 0.1% below LEI."},

    {"table_trace_size",
     "Average region size (instructions)",
     {{"NET", Tenths, of<Net, &SimResult::avgRegionInsts>, Mean},
      {"LEI", Tenths, of<Lei, &SimResult::avgRegionInsts>, Mean},
      {"comb NET", Tenths, of<NetCombined, &SimResult::avgRegionInsts>, Mean},
      {"comb LEI", Tenths, of<LeiCombined, &SimResult::avgRegionInsts>, Mean}},
     "LEI's average trace grows from NET's 14.8 to 18.3 instructions while "
     "total expansion falls — fewer, larger regions; combination grows regions "
     "further."},

    {"table_exit_domination_reduction",
     "Exit domination under trace combination (combined vs base, both "
     "algorithms pooled)",
     {{"regions base", Count, sum<Net, Lei, ExitDomRegions>},
      {"regions comb", Count,
       sum<NetCombined, LeiCombined, ExitDomRegions>},
      {"regions ratio", Pct, combinedVsBase<ExitDomRegions>, Mean},
      {"dup insts base", Count, sum<Net, Lei, ExitDomDup>},
      {"dup insts comb", Count,
       sum<NetCombined, LeiCombined, ExitDomDup>},
      {"dup ratio", Pct, combinedVsBase<ExitDomDup>, Mean}},
     "combining traces avoids ~65% of exit-dominated duplication and ~40% of "
     "exit-dominated regions; the residual comes from the finite T_prof sample "
     "and phase changes making the window unrepresentative."},

    {"table_combination_expansion",
     "Code expansion and region count under combination",
     {{"exp combNET/NET", Pct, rel<NetCombined, Net, Expansion>, Mean},
      {"exp combLEI/LEI", Pct, rel<LeiCombined, Lei, Expansion>, Mean},
      {"regions combNET/NET", Pct,
       rel<NetCombined, Net, &SimResult::regionCount>, Mean},
      {"regions combLEI/LEI", Pct,
       rel<LeiCombined, Lei, &SimResult::regionCount>, Mean}},
     "combination does not inflate expansion (98% for NET, 99% for LEI: the "
     "T_min filter slightly outweighs the extra rejoining paths) and cuts the "
     "number of regions selected by 9% (NET) and 30% (LEI)."},

    {"table_conclusion",
     "Conclusion — combined LEI relative to plain NET",
     {{"expansion", Pct, rel<LeiCombined, Net, Expansion>, Mean},
      {"exit stubs", Pct, rel<LeiCombined, Net, Stubs>, Mean},
      {"transitions", Pct, rel<LeiCombined, Net, Transitions>, Mean},
      {"90% cover set", Pct, rel<LeiCombined, Net, Cover>, Mean}},
     "combined LEI vs NET: 91% of the code expansion, 68% of the exit stubs, "
     "~50% of the region transitions, and a 90% cover set 44% smaller on "
     "average (>25% smaller on every benchmark)."},

    {"table_marking_iterations",
     "Mark-rejoining-paths sweeps (combined NET + LEI)",
     {{"regions marked", Count, sum<NetCombined, LeiCombined, Marked>},
      {"needed 2nd sweep", Count,
       sum<NetCombined, LeiCombined, MultiSweep>},
      {"fraction", Pct,
       [](R r) {
           return ratio(sum<NetCombined, LeiCombined, MultiSweep>(r),
                        sum<NetCombined, LeiCombined, Marked>(r), 0.0);
       }}},
     "~0.1% of regions whose first sweep marks blocks need a second sweep "
     "(back edges can delay propagation); in practice the dataflow is linear "
     "in the edges.",
     markingTotals},

    {"table_related_selectors",
     "90% cover set size by algorithm",
     {{"NET", Count, of<Net, Cover>},
      {"Mojo", Count, of<Mojo, Cover>},
      {"BOA", Count, of<Boa, Cover>},
      {"WRS", Count, of<Wrs, Cover>},
      {"LEI", Count, of<Lei, Cover>},
      {"LEI+comb", Count, of<LeiCombined, Cover>}},
     "more careful single-path selection (Mojo, BOA, WRS) cannot match the "
     "cover-set reduction of cycle-based selection plus combination.",
     meanVsFirst},

    {"table_related_selectors",
     "Region transitions relative to NET",
     {{"Mojo", Pct, rel<Mojo, Net, Transitions>, Mean},
      {"BOA", Pct, rel<Boa, Net, Transitions>, Mean},
      {"WRS", Pct, rel<Wrs, Net, Transitions>, Mean},
      {"LEI", Pct, rel<Lei, Net, Transitions>, Mean},
      {"LEI+comb", Pct, rel<LeiCombined, Net, Transitions>, Mean}},
     "Mojo reduces separation delay but still optimizes related traces apart; "
     "only LEI and combination cut transitions decisively."},

    {"table_icache_locality",
     "I-cache miss rate of cached execution (1 KiB, direct-mapped, 32 B "
     "lines)",
     {{"NET", Pct2, of<Net, &SimResult::icacheMissRate>, Mean},
      {"LEI", Pct2, of<Lei, &SimResult::icacheMissRate>, Mean},
      {"comb NET", Pct2, of<NetCombined, &SimResult::icacheMissRate>, Mean},
      {"comb LEI", Pct2, of<LeiCombined, &SimResult::icacheMissRate>, Mean}},
     "(validation of the paper's proxy, not a paper figure) the transition "
     "reductions of Figures 8 and 16 should translate into lower "
     "instruction-fetch miss rates, with combined LEI the lowest.",
     nullptr, tinyICache},

    {"table_region_links",
     "Distinct region-to-region links",
     {{"NET", Count, of<Net, Links>},
      {"LEI", Count, of<Lei, Links>},
      {"comb NET", Count, of<NetCombined, Links>},
      {"comb LEI", Count, of<LeiCombined, Links>},
      {"combLEI/NET", Pct, rel<LeiCombined, Net, Links>, Mean}},
     "the combined algorithms maintain far fewer links between regions, "
     "validating the paper's footnote 9 expectation."},

    {"table_tprof_sensitivity",
     "Combination window sensitivity (combined LEI vs LEI, suite "
     "averages)",
     {{"transitions ratio", Pct, rel<LeiCombined, Lei, Transitions>, Mean},
      {"cover-set ratio", Pct, rel<LeiCombined, Lei, Cover>, Mean},
      {"profiling memory", Pct,
       of<LeiCombined, &SimResult::observedMemoryRatio>, Mean}},
     "the small window yields smaller but similar improvements, with less "
     "profiling memory — the balance can be struck per deployment.",
     nullptr, nullptr, "window",
     {{"T_prof=15 T_min=5", window<15, 5>},
      {"T_prof=5  T_min=2", window<5, 2>}}},

    {"table_bounded_cache",
     "Bounded cache at 50% of NET's footprint (FIFO): regenerations and "
     "hit rate",
     {{"regen NET", Count, of<Net, Regens>},
      {"regen LEI", Count, of<Lei, Regens>},
      {"regen combNET", Count, of<NetCombined, Regens>},
      {"regen combLEI", Count, of<LeiCombined, Regens>},
      {"hit NET", Pct2, of<Net, &SimResult::hitRate>},
      {"hit combLEI", Pct2, of<LeiCombined, &SimResult::hitRate>}},
     "(extension, not a paper figure) the paper predicts fewer regenerations "
     "for algorithms that cache fewer, less duplicated regions — combined LEI "
     "should regenerate the least.",
     meanRegenerations, halfNetFootprint},

    {"ablation_buffer_size",
     "LEI vs buffer capacity (suite averages)",
     {{"regions", Tenths, of<Lei, &SimResult::regionCount>, Mean},
      {"cover90 vs NET", Pct, relBase<Lei, Net, Cover>, Mean},
      {"transitions vs NET", Pct, relBase<Lei, Net, Transitions>, Mean},
      {"executed cycles", Pct, of<Lei, Executed>, Mean},
      {"hit rate", Pct2, of<Lei, &SimResult::hitRate>, Mean}},
     "(ablation, not a paper figure) the paper's 500-entry choice sits on "
     "the flat part of the curve: small buffers cannot hold interprocedural "
     "cycles, very large ones add nothing.",
     nullptr, nullptr, "capacity",
     {{"8", buffer<8>},
      {"32", buffer<32>},
      {"128", buffer<128>},
      {"500", buffer<500>},
      {"2000", buffer<2000>}}},

    {"ablation_thresholds",
     "Threshold sweep (suite averages)",
     {{"regions", Tenths, own<&SimResult::regionCount>, Mean},
      {"expansion", Count, own<Expansion>, Mean},
      {"cover90", Tenths, own<Cover>, Mean},
      {"transitions", Count, own<Transitions>, Mean},
      {"hit rate", Pct2, own<&SimResult::hitRate>, Mean}},
     "(ablation, not a paper figure) the published 50/35 pair balances eager "
     "selection of cold paths against delayed coverage; the cover set is "
     "fairly flat around it, consistent with the paper not tuning it.",
     nullptr, nullptr, "config",
     {{"NET T=10", netThreshold<10>, Net},
      {"NET T=25", netThreshold<25>, Net},
      {"NET T=50", netThreshold<50>, Net},
      {"NET T=100", netThreshold<100>, Net},
      {"NET T=200", netThreshold<200>, Net},
      {"LEI T=10", leiThreshold<10>, Lei},
      {"LEI T=20", leiThreshold<20>, Lei},
      {"LEI T=35", leiThreshold<35>, Lei},
      {"LEI T=70", leiThreshold<70>, Lei},
      {"LEI T=140", leiThreshold<140>, Lei}}},

    // The base options arm no faults, so "none" shares their runs.
    {"table_fault_degradation",
     "Degradation under deterministic fault injection (suite averages)",
     {{"hit NET", Pct2, of<Net, &SimResult::hitRate>, Mean},
      {"hit combLEI", Pct2, of<LeiCombined, &SimResult::hitRate>, Mean},
      {"faults", Count, sum<Net, LeiCombined, Faults>, Sum},
      {"invalidated", Count, sum<Net, LeiCombined, Invalidated>, Sum},
      {"retrans", Count, sum<Net, LeiCombined, Retrans>, Sum},
      {"blacklisted", Count, sum<Net, LeiCombined, Blacklisted>, Sum}},
     "(robustness extension) hit rate should fall monotonically with fault "
     "intensity while every run completes; blacklisting should stay rare "
     "below the heavy level, where persistent translation failures push hot "
     "entrances back to pure interpretation.",
     nullptr, nullptr, "fault level",
     {{"none", nullptr},
      {"light", faults<5, 20, 2, 1>},
      {"moderate", faults<20, 150, 20, 10>},
      {"heavy", faults<50, 600, 80, 40>}}},
};

/** Every cell of `fig` over the suite, column-major. */
Values
tabulate(const Figure &fig, SuiteRunner &runner, SuiteRunner &base,
         Algorithm algo = Net)
{
    Values values(fig.columns.size());
    for (std::size_t c = 0; c < fig.columns.size(); ++c)
        for (std::size_t w = 0; w < runner.workloads().size(); ++w)
            values[c].push_back(
                fig.columns[c].cell(Runs{runner, w, base, algo}));
    return values;
}

/** A row labelled `label`, each column folded over the suite. */
std::vector<std::string>
foldRow(std::string label, const Figure &fig, const Values &values)
{
    std::vector<std::string> row{std::move(label)};
    for (std::size_t c = 0; c < fig.columns.size(); ++c) {
        const Column &col = fig.columns[c];
        const std::vector<double> &v = values[c];
        if (col.summary == Blank)
            row.emplace_back();
        else
            row.push_back(format(
                col.fmt, col.summary == Mean
                             ? mean(v)
                             : std::accumulate(v.begin(), v.end(), 0.0)));
    }
    return row;
}

/** The runner of an override, built on first use. */
using RunnerFor = std::function<SuiteRunner &(Override)>;

void
printTable(const Figure &fig, const RunnerFor &runnerFor)
{
    std::vector<std::string> headers{fig.rowHeader};
    for (const Column &col : fig.columns)
        headers.push_back(col.header);
    Table table(fig.title, std::move(headers));

    SuiteRunner &base = runnerFor(nullptr);
    for (const Variant &v : fig.variants)
        table.addRow(foldRow(v.label, fig,
                             tabulate(fig, runnerFor(v.adjust), base, v.algo)));
    if (fig.variants.empty()) {
        SuiteRunner &runner = runnerFor(fig.adjust);
        const Values values = tabulate(fig, runner, base);
        for (std::size_t w = 0; w < runner.workloads().size(); ++w) {
            std::vector<std::string> row{runner.workloads()[w]->name};
            for (std::size_t c = 0; c < fig.columns.size(); ++c)
                row.push_back(format(fig.columns[c].fmt, values[c][w]));
            table.addRow(std::move(row));
        }
        table.addSummaryRow(fig.summary ? fig.summary(values)
                                        : foldRow("average", fig, values));
    }
    printFigure(table, fig.note);
}

std::string
description()
{
    std::string text = "The paper's figures, text tables and sweeps. "
                       "Name figures as arguments (default: all):";
    for (std::size_t i = 0; i < figures.size(); ++i)
        if (i == 0 || figures[i].name != figures[i - 1].name)
            text += "\n  " + figures[i].name;
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    const BenchOptions opts = parseArgs(argc, argv, description(), &names);

    std::vector<const Figure *> chosen;
    if (names.empty())
        for (const Figure &fig : figures)
            chosen.push_back(&fig);
    for (const std::string &name : names) {
        const std::size_t before = chosen.size();
        for (const Figure &fig : figures)
            if (fig.name == name)
                chosen.push_back(&fig);
        if (chosen.size() == before) {
            std::cerr << "error: unknown figure '" << name
                      << "' (see --help)\n";
            return ExitUsageError;
        }
    }

    SuiteRunner base(opts);
    std::map<Override, SuiteRunner> adjusted;
    const RunnerFor runnerFor = [&](Override adjust) -> SuiteRunner & {
        if (adjust == nullptr)
            return base;
        const auto cell = [&base, adjust](std::size_t w, SimOptions &sim) {
            adjust(sim, Runs{base, w, base});
        };
        return adjusted.try_emplace(adjust, opts, cell).first->second;
    };
    for (const Figure *fig : chosen)
        printTable(*fig, runnerFor);
    return ExitOk;
}
