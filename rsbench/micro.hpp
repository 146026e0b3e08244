/**
 * @file
 * The history-buffer and combination-profiling micro rows, ported
 * from bench/perf_selection_overhead so its numbers continue as rows
 * of the per-layer ledger, timed through the same public functions.
 */

#ifndef RSBENCH_MICRO_HPP
#define RSBENCH_MICRO_HPP

namespace rsbench {

struct MicroRows
{
    /** HistoryBuffer find + insert + setHashLocation, ns per op. */
    double historyBufferNsPerOp = 0;
    /** CompactTrace::encode of a 128-block path, ns per block. */
    double encodeNsPerBlock = 0;
    /** CompactTrace::decode of a 4-block path, ns per block. */
    double decodeNsPerBlock = 0;
    /** RegionCfg over 60 traces, markFrequent then
     *  markRejoiningPaths: microseconds per call. */
    double markRejoiningUs = 0;
};

/** Each row: the median of five timed repetitions after a warmup. */
MicroRows measureMicroRows();

} // namespace rsbench

#endif // RSBENCH_MICRO_HPP
