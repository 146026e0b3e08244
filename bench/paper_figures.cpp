/**
 * @file
 * The paper's evaluation as one declarative table: Figures 7-19, the
 * text tables of Sections 3.2, 4.2.3, 4.3, 5 and 6, and the two
 * validation tables (modelled I-cache locality, footnote 9's
 * inter-region links).
 *
 * Each row of `figures` prints one table: its name, title, columns
 * and the published shape it should reproduce. A column is a header,
 * a per-workload cell and, optionally, the suite mean beneath it; a
 * figure that summarises differently carries its own summary
 * function. Figures run under the same options share one SuiteRunner,
 * so each (options, algorithm) suite sweep runs at most once.
 *
 *   paper_figures [bench flags] [figure ...]
 *
 * With no names, every figure prints in paper order.
 */

#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <tuple>

#include "bench_util.hpp"
#include "support/error.hpp"

using namespace rsel;
using namespace rsel::bench;

namespace {

using enum Algorithm;

/** One workload's results under any algorithm (swept on first use). */
struct Runs
{
    SuiteRunner &runner;
    std::size_t workload;

    const SimResult &
    operator()(Algorithm algo) const
    {
        return runner.results(algo)[workload];
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

/** What a column prints in the default summary row. */
enum class Summary { Blank, Mean };
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

struct Figure
{
    std::string name;
    std::string title;
    std::vector<Column> columns;
    std::string note;
    /** Replaces the "average" row when set. */
    std::vector<std::string> (*summary)(const Values &) = nullptr;
    /** Modelled I-cache geometry, when not the default. */
    std::optional<ICacheConfig> icache = std::nullopt;
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

    // Tight geometry: the synthetic hot footprints are ~100x smaller
    // than SPECint2000's, so the modelled cache must be tighter still
    // for separation to show.
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
     nullptr,
     ICacheConfig{1024, 32, 1}},

    {"table_region_links",
     "Distinct region-to-region links",
     {{"NET", Count, of<Net, Links>},
      {"LEI", Count, of<Lei, Links>},
      {"comb NET", Count, of<NetCombined, Links>},
      {"comb LEI", Count, of<LeiCombined, Links>},
      {"combLEI/NET", Pct, rel<LeiCombined, Net, Links>, Mean}},
     "the combined algorithms maintain far fewer links between regions, "
     "validating the paper's footnote 9 expectation."},
};

void
printTable(const Figure &fig, SuiteRunner &runner)
{
    std::vector<std::string> headers{"benchmark"};
    for (const Column &col : fig.columns)
        headers.push_back(col.header);
    Table table(fig.title, std::move(headers));

    Values values(fig.columns.size());
    for (std::size_t w = 0; w < runner.workloads().size(); ++w) {
        std::vector<std::string> row{runner.workloads()[w]->name};
        for (std::size_t c = 0; c < fig.columns.size(); ++c) {
            values[c].push_back(fig.columns[c].cell(Runs{runner, w}));
            row.push_back(format(fig.columns[c].fmt, values[c].back()));
        }
        table.addRow(std::move(row));
    }

    if (fig.summary) {
        table.addSummaryRow(fig.summary(values));
    } else {
        std::vector<std::string> row{"average"};
        for (std::size_t c = 0; c < fig.columns.size(); ++c) {
            const Column &col = fig.columns[c];
            row.push_back(col.summary == Mean
                              ? format(col.fmt, mean(values[c]))
                              : "");
        }
        table.addSummaryRow(std::move(row));
    }
    printFigure(table, fig.note);
}

std::string
description()
{
    std::string text = "The paper's figures and text tables. Name "
                       "figures as arguments (default: all):";
    for (std::size_t i = 0; i < figures.size(); ++i)
        if (i == 0 || figures[i].name != figures[i - 1].name)
            text += "\n  " + figures[i].name;
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::vector<std::string> names;
        const BenchOptions opts =
            parseArgs(argc, argv, description(), &names);

        std::vector<const Figure *> chosen;
        if (names.empty())
            for (const Figure &fig : figures)
                chosen.push_back(&fig);
        for (const std::string &name : names) {
            const std::size_t before = chosen.size();
            for (const Figure &fig : figures)
                if (fig.name == name)
                    chosen.push_back(&fig);
            if (chosen.size() == before)
                fatal("unknown figure '" + name + "' (see --help)");
        }

        // One runner per I-cache geometry, the only option a figure
        // overrides.
        std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
                 SuiteRunner>
            runners;
        for (const Figure *fig : chosen) {
            BenchOptions figOpts = opts;
            if (fig->icache)
                figOpts.icache = *fig->icache;
            const ICacheConfig &ic = figOpts.icache;
            const auto key = std::tuple(ic.sizeBytes, ic.lineBytes, ic.ways);
            printTable(*fig, runners.try_emplace(key, figOpts).first->second);
        }
    } catch (const FatalError &e) {
        // Bad flag values, an unknown figure and an unknown --workload
        // are the fatal inputs: usage errors.
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
    return 0;
}
