/**
 * @file
 * Architectural executor: synthesizes the dynamic basic-block stream.
 *
 * Plays the role Pin plays in the paper's framework — it reports the
 * sequence of executed basic blocks (and whether each was entered by
 * a taken branch) to a sink. Deterministic for a given seed.
 */

#ifndef RSEL_PROGRAM_EXECUTOR_HPP
#define RSEL_PROGRAM_EXECUTOR_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "program/program.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace rsel {

/** One dynamic event: a basic block beginning execution. */
struct ExecEvent
{
    /** The block now executing. */
    const BasicBlock *block = nullptr;
    /** True if the block was entered via a taken control transfer. */
    bool takenBranch = false;
    /**
     * Address of the transferring branch instruction (the last
     * instruction of the previous block); valid iff takenBranch.
     */
    Addr branchAddr = invalidAddr;
};

/** Consumer of the dynamic block stream. */
class ExecutionSink
{
  public:
    virtual ~ExecutionSink() = default;

    /**
     * Called once per executed basic block, in execution order.
     * @return false to stop execution early.
     */
    virtual bool onEvent(const ExecEvent &event) = 0;
};

/**
 * std::allocator, except that resize() leaves new elements
 * default-initialized (for the stripes' plain integers: unwritten)
 * instead of zeroing them.
 */
template <typename T>
struct UninitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = UninitAllocator<U>;
    };

    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U> &) noexcept
    {}

    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** An event-batch stripe: a vector whose resize() does not zero. */
template <typename T>
using Stripe = std::vector<T, UninitAllocator<T>>;

/**
 * A batch of dynamic block events in structure-of-arrays layout:
 * one densely packed stripe per field, so a consumer loop touches
 * only the stripes it needs and the producer never materializes
 * ExecEvent objects. The three stripes are parallel; entry i of each
 * describes the i-th event of the batch. A producer sizes the
 * stripes with resize() and writes every entry: the stripes do not
 * zero what they grow by.
 */
struct EventBatch
{
    /** Id of the block beginning execution. */
    Stripe<BlockId> blockIds;
    /** 1 if the block was entered via a taken transfer, else 0. */
    Stripe<std::uint8_t> takenFlags;
    /** Transferring branch address; valid iff takenFlags[i]. */
    Stripe<Addr> branchAddrs;

    /** Events currently in the batch. */
    std::size_t size() const { return blockIds.size(); }

    /** True when the batch holds no events. */
    bool empty() const { return blockIds.empty(); }

    /** Drop all events, keeping the stripes' capacity. */
    void
    clear()
    {
        blockIds.clear();
        takenFlags.clear();
        branchAddrs.clear();
    }

    /** Pre-size every stripe for `n` events. */
    void
    reserve(std::size_t n)
    {
        blockIds.reserve(n);
        takenFlags.reserve(n);
        branchAddrs.reserve(n);
    }

    /** Append one event. */
    void
    push(BlockId id, bool taken, Addr branchAddr)
    {
        blockIds.push_back(id);
        takenFlags.push_back(taken ? 1 : 0);
        branchAddrs.push_back(branchAddr);
    }
};

/** Default batch granularity: big enough to amortize the virtual
 *  dispatch, small enough that a batch's stripes stay in L1. */
constexpr std::size_t defaultBatchSize = 4096;

/**
 * Consumer of batched dynamic block streams. The batched counterpart
 * of ExecutionSink: one virtual call per EventBatch instead of one
 * per block.
 */
class BatchSink
{
  public:
    virtual ~BatchSink() = default;

    /**
     * Consume a batch. @return the number of events consumed;
     * returning fewer than batch.size() stops the run. The producer
     * has already advanced past the whole batch, so — unlike
     * ExecutionSink::onEvent — the unconsumed tail is not replayed
     * by a later call.
     */
    virtual std::size_t onBatch(const EventBatch &batch) = 0;
};

/**
 * The delivery loop both batch producers (Executor, TraceReplayer)
 * share: fill batches of at most `batchSize` events through
 * `producer.fillBatch` and hand each to `sink` until `maxEvents`
 * are consumed, the producer runs dry or the sink stops.
 * @return events consumed by the sink.
 */
template <typename Producer>
std::uint64_t
pumpBatches(Producer &producer, std::uint64_t maxEvents, BatchSink &sink,
            std::size_t batchSize)
{
    RSEL_ASSERT(batchSize > 0, "batch size must be at least 1");
    EventBatch batch;
    batch.reserve(batchSize);
    std::uint64_t consumed = 0;
    while (consumed < maxEvents) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(batchSize, maxEvents - consumed));
        if (producer.fillBatch(batch, want) == 0)
            break;
        const std::size_t took = sink.onBatch(batch);
        RSEL_ASSERT(took <= batch.size(),
                    "sink consumed more events than the batch holds");
        consumed += took;
        if (took < batch.size())
            break;
    }
    return consumed;
}

/**
 * Interprets a Program, resolving branch behaviours with a seeded
 * RNG, and streams ExecEvents to a sink. Maintains loop trip
 * counters, the call stack, and the phase schedule across run()
 * calls, so execution can be consumed incrementally.
 */
class Executor
{
  public:
    /**
     * @param prog program to execute; must outlive the executor.
     * @param seed RNG seed for branch resolution.
     */
    Executor(const Program &prog, std::uint64_t seed = 1);

    /**
     * Execute up to `maxEvents` further blocks.
     * @return the number of events delivered. Fewer than requested
     *         means the program halted, returned past its entry
     *         frame, or the sink stopped it.
     */
    std::uint64_t run(std::uint64_t maxEvents, ExecutionSink &sink);

    /**
     * Execute up to `maxEvents` further blocks into `batch`
     * (cleared first). The produced event stream is identical to
     * what run() would deliver: both paths share the successor
     * resolution and consume the RNG in the same order.
     * @return the number of events filled; fewer than requested
     *         means the program halted or returned past its entry
     *         frame.
     */
    std::uint64_t fillBatch(EventBatch &batch, std::size_t maxEvents);

    /**
     * Execute up to `maxEvents` blocks, delivering them to `sink` in
     * batches of at most `batchSize` events (one internal buffer is
     * reused across batches). @return events consumed by the sink.
     * If the sink stops mid-batch, events past the stop point were
     * already produced and are dropped (see BatchSink::onBatch);
     * executedBlocks() counts produced events.
     */
    std::uint64_t runBatched(std::uint64_t maxEvents, BatchSink &sink,
                             std::size_t batchSize = defaultBatchSize);

    /** True once the program has halted (run() will deliver 0). */
    bool finished() const { return finished_; }

    /** Blocks executed so far across all run() calls. */
    std::uint64_t executedBlocks() const { return executedBlocks_; }

    /** Current phase index (for tests). */
    std::size_t currentPhase() const { return phaseIdx_; }

    /** Restart execution from the program entry with a fresh seed. */
    void reset(std::uint64_t seed);

  private:
    /** Resolve the successor of `b`; may push/pop the call stack. */
    const BasicBlock *nextBlock(const BasicBlock &b, bool &taken);

    struct Step;

    /** Draw the target of an indirect block's step. */
    const BasicBlock *indirectTarget(const Step &step);

    /** Advance the phase schedule by one executed block. */
    void advancePhase();

    /**
     * Re-resolve the phase-dependent step fields for the current
     * phaseIdx_. Runs once per phase switch (and at
     * construction/reset), so the per-event path never computes a
     * phase modulus.
     */
    void rebindPhase();

    static constexpr std::uint64_t loopUnarmed =
        std::numeric_limits<std::uint64_t>::max();
    /**
     * Tripwire against unbounded guest recursion. Every call pushes
     * exactly one event, and the fuzz spec clamps runs to 5M events,
     * so a legitimate run can never reach this depth — hitting it
     * means an executor bug, not a deep program.
     */
    static constexpr std::size_t maxCallDepth = 1u << 23;

    /**
     * Everything the per-event path reads about one static block,
     * resolved once at construction (the phase-dependent fields once
     * per phase switch), so it never touches an address index or a
     * behaviour table: one record per block, indexed by block id.
     */
    struct Step
    {
        /** What resolves the block's branch. */
        enum class Kind : std::uint8_t {
            Static,    ///< no behaviour (taken / fall are fixed)
            Bernoulli, ///< conditional, phase-resolved prob
            Loop,      ///< conditional loop latch
            Indirect,  ///< weighted pick among targets
        };

        /** Block at the taken target (nullptr if none). */
        const BasicBlock *taken = nullptr;
        /** Block at the fall-through address (nullptr if none). */
        const BasicBlock *fall = nullptr;
        /** Bernoulli: phase-resolved taken probability. */
        double prob = 0.0;
        /** Indirect: phase-resolved weight row, targetCount long. */
        const double *weights = nullptr;
        /** Indirect: the candidate targets, targetCount long. */
        const BlockId *targets = nullptr;
        /** Loop: back-edge executions left, or loopUnarmed. */
        std::uint64_t loopRemaining = loopUnarmed;
        std::uint32_t tripMin = 1;
        std::uint32_t tripMax = 1;
        std::uint32_t targetCount = 0;
        Kind kind = Kind::Static;
        bool takenIsBackEdge = true;
    };

    const Program &prog_;
    Rng rng_;
    std::vector<Step> steps_;
    /** Length of the current phase; meaningless without phases. */
    std::uint64_t phaseLenCur_ = 0;
    /** False when the program has a single unbounded phase. */
    bool hasPhases_ = false;
    /** Return targets as block pointers (resolved at call time). */
    std::vector<const BasicBlock *> callStack_;
    const BasicBlock *current_;
    bool pendingTaken_ = false;
    Addr pendingBranchAddr_ = invalidAddr;
    bool finished_ = false;
    std::uint64_t executedBlocks_ = 0;
    std::size_t phaseIdx_ = 0;
    std::uint64_t phaseCounter_ = 0;
};

} // namespace rsel

#endif // RSEL_PROGRAM_EXECUTOR_HPP
