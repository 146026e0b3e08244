/**
 * @file
 * Program serialization and dynamic-trace record/replay.
 *
 * The paper's framework consumed basic-block streams collected with
 * Pin. These helpers give the library the same trace-driven front
 * door: a guest program can be saved to / loaded from a portable
 * text format, and a dynamic block stream can be recorded to a
 * compact binary trace file and replayed later — including streams
 * produced by external tools (a Pin or DynamoRIO client only needs
 * to emit the two formats below).
 *
 * Program format (text, line oriented):
 *
 *     rsel-program 1
 *     entry <blockId>
 *     phases <n> <len>...
 *     function <name>
 *     block <ninsts> <size>... <terminator> [<targetBlockId>]
 *     cond <blockId> bernoulli <n> <p>...
 *     cond <blockId> loop <tripMin> <tripMax> <takenIsBackEdge>
 *     indirect <blockId> targets <n> <blockId>... phases <m> <w>...
 *
 * Blocks appear in layout order inside their function; addresses are
 * reassigned by the deterministic builder layout, so round-tripping
 * preserves every address.
 *
 * Trace format (binary): the header line "RSTR1 <blockCount>\n"
 * (the block count fingerprints the program the trace was recorded
 * against) followed by one LEB128-encoded block id per executed
 * block, in order, terminated by one LEB128 end-of-trace marker
 * whose value is exactly `blockCount` (one past the largest valid
 * id). The marker lets the replayer distinguish a complete trace
 * from one cut short: a stream that ends without it — whether cut
 * between events or mid-LEB128 — raises a FatalError naming the
 * byte offset of the cut.
 */

#ifndef RSEL_PROGRAM_TRACE_IO_HPP
#define RSEL_PROGRAM_TRACE_IO_HPP

#include <iosfwd>
#include <string>

#include "program/executor.hpp"
#include "program/program.hpp"

namespace rsel {

/** Serialize a program to the text format. */
void saveProgram(const Program &prog, std::ostream &os);

/**
 * Load a program from the text format.
 * @throws FatalError on malformed input.
 */
Program loadProgram(std::istream &is);

/**
 * An ExecutionSink that records every executed block id to a binary
 * trace stream. Compose it in front of another sink (or use it
 * standalone while an Executor runs).
 */
class TraceWriter : public ExecutionSink
{
  public:
    /**
     * @param os   destination stream; the header is written now.
     * @param prog program being traced (fingerprints the header so
     *             replay against a different program is rejected).
     */
    TraceWriter(std::ostream &os, const Program &prog);

    /** Writes the end-of-trace marker unless finish() already did. */
    ~TraceWriter() override;

    bool onEvent(const ExecEvent &event) override;

    /**
     * Write the end-of-trace marker, sealing the trace. Idempotent;
     * called by the destructor when not invoked explicitly. No
     * events may be written afterwards.
     */
    void finish();

    /** Events written so far (the marker is not an event). */
    std::uint64_t eventCount() const { return events_; }

  private:
    std::ostream &os_;
    std::uint64_t events_ = 0;
    std::uint64_t markerValue_;
    bool finished_ = false;
};

/**
 * Replays a recorded trace into a sink, synthesizing the
 * taken-branch annotations from the program structure the same way
 * the architectural executor produces them.
 */
class TraceReplayer
{
  public:
    /**
     * @param prog the program the trace was recorded against.
     * @param is   trace stream; the header (magic and program
     *             fingerprint) is validated now.
     * @throws FatalError on a bad header or a program mismatch.
     */
    TraceReplayer(const Program &prog, std::istream &is);

    /**
     * Deliver up to `maxEvents` further events.
     * @return events delivered; fewer means the end-of-trace marker
     *         was reached or the sink stopped.
     * @throws FatalError on a corrupt stream — including a stream
     *         that ends without the end-of-trace marker (truncated
     *         between events or mid-LEB128); the error names the
     *         byte offset of the cut.
     */
    std::uint64_t run(std::uint64_t maxEvents, ExecutionSink &sink);

    /**
     * Decode up to `maxEvents` further events straight into `batch`
     * (cleared first) — the zero-copy replay path: LEB128 ids land
     * in the batch's id stripe and the taken/branch-address
     * annotations are synthesized alongside, with no per-event
     * ExecEvent materialization or sink call. The produced stream is
     * identical to what run() would deliver.
     * @return events filled; fewer than requested means the
     *         end-of-trace marker was reached.
     * @throws FatalError as run() does on corrupt/truncated streams.
     */
    std::uint64_t fillBatch(EventBatch &batch, std::size_t maxEvents);

    /**
     * Replay up to `maxEvents` events into a batch sink, at most
     * `batchSize` events per onBatch() call.
     * @return events consumed by the sink.
     */
    std::uint64_t runBatched(std::uint64_t maxEvents, BatchSink &sink,
                             std::size_t batchSize = defaultBatchSize);

    /** True once the end-of-trace marker has been consumed. */
    bool atEnd() const { return done_; }

  private:
    /**
     * Read one LEB128 value, tracking byteOffset_.
     * @return false only on EOF at a value boundary (reported by the
     *         caller as truncation, with the offset).
     */
    bool readValue(std::uint64_t &value);

    /**
     * The one decode loop behind run() and fillBatch(): decode up to
     * `maxEvents` further events, rebuilding each entry annotation
     * from the program, and hand each to `emit` until it returns
     * false. @return events decoded. @throws FatalError on a corrupt
     * or truncated stream.
     */
    template <typename Emit>
    std::uint64_t decode(std::uint64_t maxEvents, Emit emit);

    const Program &prog_;
    std::istream &is_;
    const BasicBlock *prev_ = nullptr;
    std::uint64_t byteOffset_ = 0;
    std::uint64_t eventsRead_ = 0;
    bool done_ = false;
};

} // namespace rsel

#endif // RSEL_PROGRAM_TRACE_IO_HPP
