#include "program/executor.hpp"

#include "support/error.hpp"

namespace rsel {

Executor::Executor(const Program &prog, std::uint64_t seed)
    : prog_(prog), rng_(seed),
      loopRemaining_(prog.blocks().size(), loopUnarmed),
      takenPtr_(prog.blocks().size(), nullptr),
      fallPtr_(prog.blocks().size(), nullptr),
      condPtr_(prog.blocks().size(), nullptr),
      indirectPtr_(prog.blocks().size(), nullptr),
      curProb_(prog.blocks().size(), 0.0),
      curWeights_(prog.blocks().size(), nullptr),
      current_(&prog.block(prog.entry()))
{
    // Resolve the static successor addresses to block pointers and
    // the behaviour annotations to id-indexed arrays once, so the
    // per-event path never touches an address or behaviour hash.
    for (const BasicBlock &b : prog_.blocks()) {
        if (b.takenTarget() != invalidAddr)
            takenPtr_[b.id()] = prog_.blockAtAddr(b.takenTarget());
        if (b.fallThroughAddr() != invalidAddr)
            fallPtr_[b.id()] = prog_.blockAtAddr(b.fallThroughAddr());
        if (b.terminator() == BranchKind::CondDirect &&
            prog_.hasCondBehavior(b.id())) {
            condPtr_[b.id()] = &prog_.condBehavior(b.id());
            condBlocks_.push_back(b.id());
        }
        if ((b.terminator() == BranchKind::IndirectCall ||
             b.terminator() == BranchKind::IndirectJump) &&
            prog_.hasIndirectBehavior(b.id())) {
            indirectPtr_[b.id()] = &prog_.indirectBehavior(b.id());
            indirectBlocks_.push_back(b.id());
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
    loopRemaining_.assign(prog_.blocks().size(), loopUnarmed);
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
    for (const BlockId id : condBlocks_) {
        const CondBehavior &cb = *condPtr_[id];
        if (cb.kind == CondBehavior::Kind::Bernoulli) {
            const auto &probs = cb.takenProbByPhase;
            curProb_[id] = probs[phaseIdx_ % probs.size()];
        }
    }
    for (const BlockId id : indirectBlocks_) {
        const IndirectBehavior &ib = *indirectPtr_[id];
        curWeights_[id] =
            &ib.weightsByPhase[phaseIdx_ % ib.weightsByPhase.size()];
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
    taken = true; // most cases transfer control; overridden below
    switch (b.terminator()) {
      case BranchKind::None: {
        taken = false;
        return fallPtr_[b.id()];
      }
      case BranchKind::CondDirect: {
        RSEL_ASSERT(condPtr_[b.id()] != nullptr,
                    "conditional block executed without a behaviour");
        const CondBehavior &cb = *condPtr_[b.id()];
        bool takeBranch;
        if (cb.kind == CondBehavior::Kind::Bernoulli) {
            takeBranch = rng_.nextBool(curProb_[b.id()]);
        } else {
            // Loop latch: arm with a fresh trip count when entered
            // from outside; count down back-edge executions.
            std::uint64_t &remaining = loopRemaining_[b.id()];
            if (remaining == loopUnarmed)
                remaining = rng_.nextRange(cb.tripMin, cb.tripMax) - 1;
            const bool backEdge = remaining > 0;
            if (backEdge)
                --remaining;
            else
                remaining = loopUnarmed;
            takeBranch = cb.takenIsBackEdge ? backEdge : !backEdge;
        }
        if (takeBranch)
            return takenPtr_[b.id()];
        taken = false;
        return fallPtr_[b.id()];
      }
      case BranchKind::Jump:
        return takenPtr_[b.id()];
      case BranchKind::Call:
      case BranchKind::IndirectCall: {
        RSEL_ASSERT(callStack_.size() < maxCallDepth,
                    "guest call stack overflow");
        callStack_.push_back(fallPtr_[b.id()]);
        if (b.terminator() == BranchKind::Call)
            return takenPtr_[b.id()];
        RSEL_ASSERT(indirectPtr_[b.id()] != nullptr,
                    "indirect block executed without a behaviour");
        const IndirectBehavior &ib = *indirectPtr_[b.id()];
        const std::size_t idx = rng_.nextWeighted(*curWeights_[b.id()]);
        return &prog_.block(ib.targets[idx]);
      }
      case BranchKind::IndirectJump: {
        RSEL_ASSERT(indirectPtr_[b.id()] != nullptr,
                    "indirect block executed without a behaviour");
        const IndirectBehavior &ib = *indirectPtr_[b.id()];
        const std::size_t idx = rng_.nextWeighted(*curWeights_[b.id()]);
        return &prog_.block(ib.targets[idx]);
      }
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
