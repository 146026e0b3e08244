#include "program/executor.hpp"

#include "support/error.hpp"

namespace rsel {

Executor::Executor(const Program &prog, std::uint64_t seed)
    : prog_(prog), rng_(seed), steps_(prog.blocks().size()),
      current_(&prog.block(prog.entry()))
{
    // Resolve the static successor addresses to block pointers and
    // the behaviour annotations to step records once, so the
    // per-event path never touches an address or behaviour table.
    for (const BasicBlock &b : prog_.blocks()) {
        Step &step = steps_[b.id()];
        if (b.takenTarget() != invalidAddr)
            step.taken = prog_.blockAtAddr(b.takenTarget());
        step.fall = prog_.blockAtAddr(b.fallThroughAddr());
        if (b.terminator() == BranchKind::CondDirect) {
            const CondView cb = prog_.condBehavior(b.id());
            step.kind = cb.kind == CondBehavior::Kind::Bernoulli
                            ? Step::Kind::Bernoulli
                            : Step::Kind::Loop;
            step.tripMin = cb.tripMin;
            step.tripMax = cb.tripMax;
            step.takenIsBackEdge = cb.takenIsBackEdge;
        }
        if (b.terminator() == BranchKind::IndirectCall ||
            b.terminator() == BranchKind::IndirectJump) {
            const IndirectView ib = prog_.indirectBehavior(b.id());
            step.kind = Step::Kind::Indirect;
            step.targets = ib.targets.data();
            step.targetCount =
                static_cast<std::uint32_t>(ib.targets.size());
        }
    }
    hasPhases_ = !prog_.phaseLengths().empty();
    phaseLenCur_ = hasPhases_ ? prog_.phaseLengths()[0] : 0;
    rebindPhase();
}

void
Executor::reset(std::uint64_t seed)
{
    rng_ = Rng(seed);
    for (Step &step : steps_)
        step.loopRemaining = loopUnarmed;
    callStack_.clear();
    current_ = &prog_.block(prog_.entry());
    pendingTaken_ = false;
    pendingBranchAddr_ = invalidAddr;
    finished_ = false;
    executedBlocks_ = 0;
    phaseIdx_ = 0;
    phaseCounter_ = 0;
    phaseLenCur_ = hasPhases_ ? prog_.phaseLengths()[0] : 0;
    rebindPhase();
}

void
Executor::rebindPhase()
{
    for (BlockId id = 0; id < steps_.size(); ++id) {
        Step &step = steps_[id];
        if (step.kind == Step::Kind::Bernoulli) {
            const auto probs = prog_.condBehavior(id).takenProbByPhase;
            step.prob = probs[phaseIdx_ % probs.size()];
        } else if (step.kind == Step::Kind::Indirect) {
            step.weights =
                prog_.indirectBehavior(id).weightsFor(phaseIdx_).data();
        }
    }
}

void
Executor::advancePhase()
{
    if (!hasPhases_)
        return;
    if (++phaseCounter_ >= phaseLenCur_) {
        phaseCounter_ = 0;
        const auto &lengths = prog_.phaseLengths();
        phaseIdx_ = phaseIdx_ + 1 == lengths.size() ? 0 : phaseIdx_ + 1;
        phaseLenCur_ = lengths[phaseIdx_];
        rebindPhase();
    }
}

const BasicBlock *
Executor::nextBlock(const BasicBlock &b, bool &taken)
{
    Step &step = steps_[b.id()];
    taken = true; // most cases transfer control; overridden below
    switch (b.terminator()) {
      case BranchKind::None: {
        taken = false;
        return step.fall;
      }
      case BranchKind::CondDirect: {
        bool takeBranch;
        if (step.kind == Step::Kind::Bernoulli) {
            takeBranch = rng_.nextBool(step.prob);
        } else {
            RSEL_ASSERT(step.kind == Step::Kind::Loop,
                        "conditional block executed without a behaviour");
            // Loop latch: arm with a fresh trip count when entered
            // from outside; count down back-edge executions.
            std::uint64_t &remaining = step.loopRemaining;
            if (remaining == loopUnarmed)
                remaining = rng_.nextRange(step.tripMin, step.tripMax) - 1;
            const bool backEdge = remaining > 0;
            if (backEdge)
                --remaining;
            else
                remaining = loopUnarmed;
            takeBranch = step.takenIsBackEdge ? backEdge : !backEdge;
        }
        if (takeBranch)
            return step.taken;
        taken = false;
        return step.fall;
      }
      case BranchKind::Jump:
        return step.taken;
      case BranchKind::Call:
      case BranchKind::IndirectCall: {
        RSEL_ASSERT(callStack_.size() < maxCallDepth,
                    "guest call stack overflow");
        callStack_.push_back(step.fall);
        if (b.terminator() == BranchKind::Call)
            return step.taken;
        return indirectTarget(step);
      }
      case BranchKind::IndirectJump:
        return indirectTarget(step);
      case BranchKind::Return: {
        if (callStack_.empty())
            return nullptr; // returned past the entry frame: done
        const BasicBlock *ret = callStack_.back();
        callStack_.pop_back();
        RSEL_ASSERT(ret != nullptr, "return address is not a block");
        return ret;
      }
      case BranchKind::Halt:
        return nullptr;
    }
    return nullptr;
}

const BasicBlock *
Executor::indirectTarget(const Step &step)
{
    RSEL_ASSERT(step.kind == Step::Kind::Indirect,
                "indirect block executed without a behaviour");
    const std::size_t idx = rng_.nextWeighted(
        std::span<const double>(step.weights, step.targetCount));
    return &prog_.block(step.targets[idx]);
}

std::uint64_t
Executor::run(std::uint64_t maxEvents, ExecutionSink &sink)
{
    std::uint64_t delivered = 0;
    while (!finished_ && delivered < maxEvents) {
        ExecEvent ev;
        ev.block = current_;
        ev.takenBranch = pendingTaken_;
        ev.branchAddr = pendingBranchAddr_;

        ++delivered;
        ++executedBlocks_;
        advancePhase();

        const bool keepGoing = sink.onEvent(ev);

        // Resolve the successor before honouring an early stop so
        // execution can resume exactly where it left off.
        bool taken = false;
        const BasicBlock *next = nextBlock(*current_, taken);
        if (next == nullptr) {
            finished_ = true;
        } else {
            pendingTaken_ = taken;
            pendingBranchAddr_ = taken ? current_->lastInstAddr()
                                       : invalidAddr;
            current_ = next;
        }
        if (!keepGoing)
            break;
    }
    return delivered;
}

std::uint64_t
Executor::fillBatch(EventBatch &batch, std::size_t maxEvents)
{
    batch.clear();
    if (finished_ || maxEvents == 0)
        return 0;
    // Pre-size the stripes once and fill through raw pointers: the
    // loop then writes each event with three plain stores instead of
    // three push_backs (capacity check + size bump apiece).
    batch.blockIds.resize(maxEvents);
    batch.takenFlags.resize(maxEvents);
    batch.branchAddrs.resize(maxEvents);
    BlockId *const ids = batch.blockIds.data();
    std::uint8_t *const flags = batch.takenFlags.data();
    Addr *const addrs = batch.branchAddrs.data();

    std::size_t count = 0;
    while (count < maxEvents) {
        // The same per-event sequence as run(): record the event,
        // advance the phase, then resolve the successor. Only the
        // delivery differs, so the RNG is consumed identically and
        // the two paths produce byte-identical streams.
        ids[count] = current_->id();
        flags[count] = pendingTaken_ ? 1 : 0;
        addrs[count] = pendingBranchAddr_;
        ++count;
        ++executedBlocks_;
        advancePhase();

        bool taken = false;
        const BasicBlock *next = nextBlock(*current_, taken);
        if (next == nullptr) {
            finished_ = true;
            break;
        }
        pendingTaken_ = taken;
        pendingBranchAddr_ = taken ? current_->lastInstAddr()
                                   : invalidAddr;
        current_ = next;
    }
    batch.blockIds.resize(count);
    batch.takenFlags.resize(count);
    batch.branchAddrs.resize(count);
    return count;
}

std::uint64_t
Executor::runBatched(std::uint64_t maxEvents, BatchSink &sink,
                     std::size_t batchSize)
{
    return pumpBatches(*this, maxEvents, sink, batchSize);
}

} // namespace rsel
