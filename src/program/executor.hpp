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
    struct Step;

    /**
     * Resolve the successor of `step`, drawing from the RNG and
     * pushing or popping the call stack as its op requires. Both
     * run() and fillBatch() go through it, so the two paths consume
     * the RNG identically. @return the successor's record, nullptr
     * when the program halted or returned past its entry frame.
     * Always inlined: it runs once per event, and GCC would otherwise
     * keep one out-of-line copy for its two callers.
     */
    [[gnu::always_inline]] Step *nextStep(Step &step, bool &taken);

    /** Draw the target of an indirect step. */
    Step *indirectTarget(const Step &step);

    /** Advance the phase schedule by one executed block (run()'s
     *  per-event form; fillBatch() counts whole phase chunks). */
    void advancePhase();

    /** Move to the next phase of the schedule and rebind. */
    void switchPhase();

    /**
     * Re-resolve the phase-dependent step fields for the current
     * phaseIdx_. Runs once per phase switch (and at
     * construction/reset), so the per-event path never computes a
     * phase modulus or sums a weight row.
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
     * per phase switch): one 64-byte record per block, indexed by
     * block id. Successors are records too, so an event never reads
     * a BasicBlock, an address index or a behaviour table.
     */
    struct Step
    {
        /** How the block picks its successor: the terminator and
         *  the behaviour resolving it, folded into one tag. */
        enum class Op : std::uint8_t {
            FallThrough,  ///< no terminator: continue at `fall`
            Jump,         ///< to `taken`
            Call,         ///< push `fall`, go to `taken`
            IndirectCall, ///< push `fall`, weighted pick
            IndirectJump, ///< weighted pick
            Return,       ///< pop the call stack
            Halt,         ///< stop
            Bernoulli,    ///< conditional, phase-bound probability
            Loop,         ///< conditional loop latch
        };

        /** Loop: the latch's trip range and the back-edge
         *  executions it has left (loopUnarmed until entered). */
        struct Latch
        {
            std::uint64_t remaining;
            std::uint32_t tripMin;
            std::uint32_t tripMax;
        };

        /** Indirect: the candidate targets and the phase-bound
         *  weight row (targetCount long each) with its sum. */
        struct Row
        {
            const BlockId *targets;
            const double *weights;
            double total;
        };

        /** The static taken target's record (nullptr if none). */
        Step *taken = nullptr;
        /** The fall-through address's record (nullptr if none). */
        Step *fall = nullptr;
        /** Address of the block's last instruction (the branch). */
        Addr lastInstAddr = invalidAddr;
        BlockId id = invalidBlock;
        /** Indirect: the number of candidate targets. */
        std::uint32_t targetCount = 0;
        Op op = Op::FallThrough;
        /** Loop: the taken edge is the back edge. */
        bool takenIsBackEdge = true;
        /** The op's own fields; `prob` for Bernoulli. */
        union {
            double prob = 0.0;
            Latch latch;
            Row row;
        };
    };
    static_assert(sizeof(Step) <= 64, "one step record per cache line");

    const Program &prog_;
    Rng rng_;
    std::vector<Step> steps_;
    /** Length of the current phase; meaningless without phases. */
    std::uint64_t phaseLenCur_ = 0;
    /** False when the program has a single unbounded phase. */
    bool hasPhases_ = false;
    /** Return targets as step records (resolved at call time). */
    std::vector<Step *> callStack_;
    Step *current_;
    bool pendingTaken_ = false;
    Addr pendingBranchAddr_ = invalidAddr;
    bool finished_ = false;
    std::uint64_t executedBlocks_ = 0;
    std::size_t phaseIdx_ = 0;
    std::uint64_t phaseCounter_ = 0;
};

} // namespace rsel

#endif // RSEL_PROGRAM_EXECUTOR_HPP
