#include "program/executor.hpp"

#include "support/error.hpp"

namespace rsel {

Executor::Executor(const Program &prog, std::uint64_t seed)
    : prog_(prog), rng_(seed), steps_(prog.blocks().size()),
      current_(&steps_.at(prog.entry()))
{
    // Resolve the static successor addresses to step records and the
    // terminators and behaviour annotations to one op per record, so
    // the per-event path never touches a block, an address or a
    // behaviour table.
    const auto stepAt = [&](Addr addr) -> Step * {
        const BasicBlock *b = prog_.blockAtAddr(addr);
        return b != nullptr ? &steps_[b->id()] : nullptr;
    };
    for (const BasicBlock &b : prog_.blocks()) {
        Step &step = steps_[b.id()];
        step.id = b.id();
        step.lastInstAddr = b.lastInstAddr();
        if (b.takenTarget() != invalidAddr)
            step.taken = stepAt(b.takenTarget());
        step.fall = stepAt(b.fallThroughAddr());
        switch (b.terminator()) {
          case BranchKind::None:
            step.op = Step::Op::FallThrough;
            break;
          case BranchKind::CondDirect: {
            const CondView cb = prog_.condBehavior(b.id());
            if (cb.kind == CondBehavior::Kind::Bernoulli) {
                step.op = Step::Op::Bernoulli;
            } else {
                step.op = Step::Op::Loop;
                step.takenIsBackEdge = cb.takenIsBackEdge;
                step.latch = {loopUnarmed, cb.tripMin, cb.tripMax};
            }
            break;
          }
          case BranchKind::Jump:
            step.op = Step::Op::Jump;
            break;
          case BranchKind::Call:
            step.op = Step::Op::Call;
            break;
          case BranchKind::IndirectCall:
          case BranchKind::IndirectJump: {
            const IndirectView ib = prog_.indirectBehavior(b.id());
            step.op = b.terminator() == BranchKind::IndirectCall
                          ? Step::Op::IndirectCall
                          : Step::Op::IndirectJump;
            step.targetCount =
                static_cast<std::uint32_t>(ib.targets.size());
            step.row = {ib.targets.data(), nullptr, 0.0};
            break;
          }
          case BranchKind::Return:
            step.op = Step::Op::Return;
            break;
          case BranchKind::Halt:
            step.op = Step::Op::Halt;
            break;
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
        if (step.op == Step::Op::Loop)
            step.latch.remaining = loopUnarmed;
    callStack_.clear();
    current_ = &steps_[prog_.entry()];
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
    for (Step &step : steps_) {
        if (step.op == Step::Op::Bernoulli) {
            const auto probs = prog_.condBehavior(step.id).takenProbByPhase;
            step.prob = probs[phaseIdx_ % probs.size()];
        } else if (step.op == Step::Op::IndirectCall ||
                   step.op == Step::Op::IndirectJump) {
            const std::span<const double> row =
                prog_.indirectBehavior(step.id).weightsFor(phaseIdx_);
            // Summed left to right from 0.0, as a per-draw sum would
            // be: the same bits, once per phase instead of per draw.
            double total = 0.0;
            for (const double w : row)
                total += w;
            step.row.weights = row.data();
            step.row.total = total;
        }
    }
}

void
Executor::switchPhase()
{
    phaseCounter_ = 0;
    const auto &lengths = prog_.phaseLengths();
    phaseIdx_ = phaseIdx_ + 1 == lengths.size() ? 0 : phaseIdx_ + 1;
    phaseLenCur_ = lengths[phaseIdx_];
    rebindPhase();
}

void
Executor::advancePhase()
{
    if (hasPhases_ && ++phaseCounter_ >= phaseLenCur_)
        switchPhase();
}

inline Executor::Step *
Executor::indirectTarget(const Step &step)
{
    const std::size_t idx = rng_.nextWeighted(
        std::span<const double>(step.row.weights, step.targetCount),
        step.row.total);
    return &steps_[step.row.targets[idx]];
}

inline Executor::Step *
Executor::nextStep(Step &step, bool &taken)
{
    taken = true; // most ops transfer control; overridden below
    switch (step.op) {
      case Step::Op::FallThrough:
        taken = false;
        return step.fall;
      case Step::Op::Jump:
        return step.taken;
      case Step::Op::Bernoulli:
        taken = rng_.nextBool(step.prob);
        return taken ? step.taken : step.fall;
      case Step::Op::Loop: {
        // Loop latch: arm with a fresh trip count when entered from
        // outside; count down back-edge executions.
        std::uint64_t &remaining = step.latch.remaining;
        if (remaining == loopUnarmed)
            remaining =
                rng_.nextRange(step.latch.tripMin, step.latch.tripMax) - 1;
        const bool backEdge = remaining > 0;
        if (backEdge)
            --remaining;
        else
            remaining = loopUnarmed;
        if (step.takenIsBackEdge == backEdge)
            return step.taken;
        taken = false;
        return step.fall;
      }
      case Step::Op::Call:
      case Step::Op::IndirectCall:
        RSEL_ASSERT(callStack_.size() < maxCallDepth,
                    "guest call stack overflow");
        callStack_.push_back(step.fall);
        if (step.op == Step::Op::Call)
            return step.taken;
        return indirectTarget(step);
      case Step::Op::IndirectJump:
        return indirectTarget(step);
      case Step::Op::Return: {
        if (callStack_.empty())
            return nullptr; // returned past the entry frame: done
        Step *const ret = callStack_.back();
        callStack_.pop_back();
        RSEL_ASSERT(ret != nullptr, "return address is not a block");
        return ret;
      }
      case Step::Op::Halt:
        return nullptr;
    }
    return nullptr;
}

std::uint64_t
Executor::run(std::uint64_t maxEvents, ExecutionSink &sink)
{
    const BasicBlock *const blocks = prog_.blocks().data();
    std::uint64_t delivered = 0;
    while (!finished_ && delivered < maxEvents) {
        ExecEvent ev;
        ev.block = &blocks[current_->id];
        ev.takenBranch = pendingTaken_;
        ev.branchAddr = pendingBranchAddr_;

        ++delivered;
        ++executedBlocks_;
        advancePhase();

        const bool keepGoing = sink.onEvent(ev);

        // Resolve the successor before honouring an early stop so
        // execution can resume exactly where it left off.
        bool taken = false;
        Step *const next = nextStep(*current_, taken);
        if (next == nullptr) {
            finished_ = true;
        } else {
            pendingTaken_ = taken;
            pendingBranchAddr_ = taken ? current_->lastInstAddr
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

    // The same per-event sequence as run(), in chunks that end at the
    // batch end or with the event completing the current phase: record
    // each event, then resolve its successor. The phase switches after
    // the chunk's last event is recorded and before its successor is
    // resolved, exactly where run()'s per-event count switches it, so
    // the RNG is consumed identically and the streams are the same.
    Step *cur = current_;
    bool taken = pendingTaken_;
    Addr branch = pendingBranchAddr_;
    std::size_t count = 0;
    while (count < maxEvents && !finished_) {
        std::size_t stop = maxEvents;
        bool phaseEnds = false;
        if (hasPhases_ && phaseLenCur_ - phaseCounter_ <= maxEvents - count) {
            stop = count + static_cast<std::size_t>(phaseLenCur_ -
                                                    phaseCounter_);
            phaseEnds = true;
        }
        const std::size_t begin = count;
        for (;;) {
            ids[count] = cur->id;
            flags[count] = taken ? 1 : 0;
            addrs[count] = branch;
            const bool last = ++count == stop;
            if (last && phaseEnds)
                switchPhase();
            Step *const next = nextStep(*cur, taken);
            if (next == nullptr) {
                finished_ = true;
                break;
            }
            branch = taken ? cur->lastInstAddr : invalidAddr;
            cur = next;
            if (last)
                break;
        }
        executedBlocks_ += count - begin;
        if (hasPhases_ && !(phaseEnds && count == stop))
            phaseCounter_ += count - begin;
    }
    current_ = cur;
    pendingTaken_ = taken;
    pendingBranchAddr_ = branch;
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
