#include "program/program_builder.hpp"

#include <bit>

#include "support/error.hpp"

namespace rsel {

namespace {

/** Function start alignment, mirroring common linker behaviour. */
constexpr Addr funcAlign = 16;

Addr
alignUp(Addr a, Addr align)
{
    return (a + align - 1) / align * align;
}

} // namespace

ProgramBuilder::ProgramBuilder(std::uint64_t seed, Addr baseAddr)
    : rng_(seed), baseAddr_(baseAddr)
{}

FuncId
ProgramBuilder::beginFunction(const std::string &name)
{
    if (!functions_.empty()) {
        Function &prev = functions_.back();
        prev.lastBlock = static_cast<BlockId>(pendings_.size());
        if (prev.firstBlock == prev.lastBlock)
            fatal("function '" + prev.name + "' has no blocks");
    }
    Function f;
    f.name = name;
    f.firstBlock = static_cast<BlockId>(pendings_.size());
    f.entry = f.firstBlock; // first created block is the entry
    functions_.push_back(std::move(f));
    return static_cast<FuncId>(functions_.size() - 1);
}

BlockId
ProgramBuilder::block(unsigned ninsts)
{
    if (functions_.empty())
        fatal("create a function before creating blocks");
    if (ninsts == 0)
        fatal("a block needs at least one instruction");
    PendingBlock pb;
    pb.func = static_cast<FuncId>(functions_.size() - 1);
    pb.ninsts = ninsts;
    pendings_.push_back(pb);
    return static_cast<BlockId>(pendings_.size() - 1);
}

BlockId
ProgramBuilder::blockWithSizes(const std::vector<std::uint8_t> &sizes)
{
    const BlockId id = block(static_cast<unsigned>(sizes.size()));
    for (std::uint8_t s : sizes) {
        if (s == 0)
            fatal("instruction sizes must be positive");
    }
    pendings_.back().sizesBegin = static_cast<std::uint32_t>(sizes_.size());
    pendings_.back().sizesCount = static_cast<std::uint32_t>(sizes.size());
    sizes_.insert(sizes_.end(), sizes.begin(), sizes.end());
    return id;
}

void
ProgramBuilder::reserve(std::size_t blocks, std::size_t functions)
{
    pendings_.reserve(blocks);
    functions_.reserve(functions);
}

ProgramBuilder::PendingBlock &
ProgramBuilder::pending(BlockId id)
{
    if (id >= pendings_.size())
        fatal("unknown block id " + std::to_string(id));
    return pendings_[id];
}

void
ProgramBuilder::setTerminator(BlockId src, BranchKind kind, BlockId target,
                              FuncId callee)
{
    PendingBlock &pb = pending(src);
    if (pb.terminator != BranchKind::None)
        fatal("block " + std::to_string(src) +
              " already has a terminator");
    pb.terminator = kind;
    pb.target = target;
    pb.callee = callee;
}

void
ProgramBuilder::condTo(BlockId src, BlockId target,
                       const CondBehavior &behavior)
{
    if (behavior.kind == CondBehavior::Kind::Bernoulli &&
        behavior.takenProbByPhase.empty()) {
        fatal("Bernoulli behaviour needs at least one probability");
    }
    if (behavior.kind == CondBehavior::Kind::Loop &&
        (behavior.tripMin < 1 || behavior.tripMax < behavior.tripMin)) {
        fatal("loop latch needs 1 <= tripMin <= tripMax, got " +
              std::to_string(behavior.tripMin) + ".." +
              std::to_string(behavior.tripMax));
    }
    setTerminator(src, BranchKind::CondDirect, target, invalidFunc);
    Program::Behavior &b = pendings_[src].behavior;
    b.kind = Program::Behavior::Kind::Cond;
    b.condKind = behavior.kind;
    b.takenIsBackEdge = behavior.takenIsBackEdge;
    b.tripMin = behavior.tripMin;
    b.tripMax = behavior.tripMax;
    b.numbersBegin = static_cast<std::uint32_t>(numbers_.size());
    b.numbersCount =
        static_cast<std::uint32_t>(behavior.takenProbByPhase.size());
    numbers_.insert(numbers_.end(), behavior.takenProbByPhase.begin(),
                    behavior.takenProbByPhase.end());
}

void
ProgramBuilder::loopTo(BlockId src, BlockId head, std::uint32_t trip_min,
                       std::uint32_t trip_max)
{
    condTo(src, head, CondBehavior::loop(trip_min, trip_max));
}

void
ProgramBuilder::jumpTo(BlockId src, BlockId target)
{
    setTerminator(src, BranchKind::Jump, target, invalidFunc);
}

void
ProgramBuilder::callTo(BlockId src, FuncId callee)
{
    if (callee >= functions_.size())
        fatal("unknown callee function id " + std::to_string(callee));
    setTerminator(src, BranchKind::Call, invalidBlock, callee);
}

namespace {

void
validateIndirect(const IndirectBehavior &behavior)
{
    if (behavior.targets.empty())
        fatal("indirect branch needs at least one target");
    if (behavior.weightsByPhase.empty())
        fatal("indirect branch needs at least one weight vector");
    for (const auto &weights : behavior.weightsByPhase) {
        if (weights.size() != behavior.targets.size())
            fatal("indirect weights must match target count");
    }
}

} // namespace

void
ProgramBuilder::setIndirect(BlockId src, BranchKind kind,
                            const IndirectBehavior &behavior)
{
    validateIndirect(behavior);
    setTerminator(src, kind, invalidBlock, invalidFunc);
    Program::Behavior &b = pendings_[src].behavior;
    b.kind = Program::Behavior::Kind::Indirect;
    b.targetsBegin = static_cast<std::uint32_t>(targets_.size());
    b.targetsCount = static_cast<std::uint32_t>(behavior.targets.size());
    targets_.insert(targets_.end(), behavior.targets.begin(),
                    behavior.targets.end());
    b.numbersBegin = static_cast<std::uint32_t>(numbers_.size());
    for (const auto &weights : behavior.weightsByPhase)
        numbers_.insert(numbers_.end(), weights.begin(), weights.end());
    b.numbersCount =
        static_cast<std::uint32_t>(numbers_.size() - b.numbersBegin);
}

void
ProgramBuilder::indirectJump(BlockId src, const IndirectBehavior &behavior)
{
    setIndirect(src, BranchKind::IndirectJump, behavior);
}

void
ProgramBuilder::indirectCall(BlockId src, const IndirectBehavior &behavior)
{
    setIndirect(src, BranchKind::IndirectCall, behavior);
}

void
ProgramBuilder::ret(BlockId src)
{
    setTerminator(src, BranchKind::Return, invalidBlock, invalidFunc);
}

void
ProgramBuilder::halt(BlockId src)
{
    setTerminator(src, BranchKind::Halt, invalidBlock, invalidFunc);
}

BlockId
ProgramBuilder::functionEntry(FuncId func) const
{
    if (func >= functions_.size())
        fatal("unknown function id " + std::to_string(func));
    return functions_[func].entry;
}

void
ProgramBuilder::setEntry(BlockId entry)
{
    if (entry >= pendings_.size())
        fatal("unknown entry block id " + std::to_string(entry));
    entry_ = entry;
}

void
ProgramBuilder::setPhaseLengths(std::vector<std::uint64_t> lengths)
{
    for (std::uint64_t len : lengths) {
        if (len == 0)
            fatal("phase lengths must be positive");
    }
    phaseLengths_ = std::move(lengths);
}

Program
ProgramBuilder::build()
{
    if (built_)
        fatal("ProgramBuilder::build() may only be called once");
    built_ = true;

    if (pendings_.empty())
        fatal("program has no blocks");
    functions_.back().lastBlock = static_cast<BlockId>(pendings_.size());

    if (entry_ == invalidBlock) {
        // Default entry: the function named "main" when present
        // (workloads lay out callees first, so "first function"
        // would usually be a helper), otherwise the first function.
        entry_ = functions_.front().entry;
        for (const Function &f : functions_) {
            if (f.name == "main") {
                entry_ = f.entry;
                break;
            }
        }
    }

    // Pass 0: every target names a block, and every indirect-call
    // target a function entry, before pass 2 reads their addresses.
    // Direct calls name a FuncId, which callTo() already checked.
    const std::size_t nBlocks = pendings_.size();
    for (BlockId id = 0; id < nBlocks; ++id) {
        const PendingBlock &pb = pendings_[id];
        if ((pb.terminator == BranchKind::Jump ||
             pb.terminator == BranchKind::CondDirect) &&
            pb.target >= nBlocks) {
            fatal("block " + std::to_string(id) + " branches to block " +
                  std::to_string(pb.target) + ", which is not a block "
                  "of the program (" + std::to_string(nBlocks) +
                  " blocks)");
        }
        const Program::Behavior &b = pb.behavior;
        if (b.kind != Program::Behavior::Kind::Indirect)
            continue;
        for (std::uint32_t i = 0; i < b.targetsCount; ++i) {
            const BlockId t = targets_[b.targetsBegin + i];
            if (t >= nBlocks)
                fatal("block " + std::to_string(id) +
                      " declares indirect target " + std::to_string(t) +
                      ", which is not a block of the program (" +
                      std::to_string(nBlocks) + " blocks)");
            if (pb.terminator == BranchKind::IndirectCall &&
                functions_[pendings_[t].func].entry != t)
                fatal("block " + std::to_string(id) +
                      " calls block " + std::to_string(t) +
                      " indirectly, which is not a function entry");
        }
    }

    // Pass 1: assign instruction sizes and block addresses in layout
    // order. Sizes are 2-6 bytes, mean approximately 3.5, matching
    // the paper's "between three and four bytes" average.
    Program prog;
    std::size_t instTotal = 0;
    for (const PendingBlock &pb : pendings_)
        instTotal += pb.ninsts;
    prog.insts_.reserve(instTotal);
    Addr cursor = baseAddr_;
    FuncId currentFunc = invalidFunc;
    for (PendingBlock &pb : pendings_) {
        if (pb.func != currentFunc) {
            cursor = alignUp(cursor, funcAlign);
            currentFunc = pb.func;
        }
        pb.firstInst = static_cast<std::uint32_t>(prog.insts_.size());
        for (unsigned i = 0; i < pb.ninsts; ++i) {
            Instruction inst;
            inst.addr = cursor;
            inst.sizeBytes =
                pb.sizesCount == 0
                    ? static_cast<std::uint8_t>(rng_.nextRange(2, 6))
                    : sizes_[pb.sizesBegin + i];
            cursor += inst.sizeBytes;
            prog.insts_.push_back(inst);
        }
    }

    // Pass 2: resolve targets and materialize blocks, their
    // behaviours and the address index.
    const auto startAddr = [&](BlockId id) {
        return prog.insts_[pendings_[id].firstInst].addr;
    };
    const std::size_t slots = std::bit_ceil(2 * pendings_.size());
    prog.addrIndex_.resize(slots);
    prog.addrShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    prog.blocks_.reserve(pendings_.size());
    prog.behaviors_.reserve(pendings_.size());
    for (BlockId id = 0; id < pendings_.size(); ++id) {
        const PendingBlock &pb = pendings_[id];
        Addr target = invalidAddr;
        if (pb.terminator == BranchKind::Call) {
            target = startAddr(functions_[pb.callee].entry);
        } else if (pb.target != invalidBlock) {
            target = startAddr(pb.target);
        }
        prog.blocks_.emplace_back(
            id, pb.func,
            std::span<const Instruction>(
                prog.insts_.data() + pb.firstInst, pb.ninsts),
            pb.terminator, target, pb.firstInst);
        prog.behaviors_.push_back(pb.behavior);
        std::size_t slot = prog.addrSlotOf(startAddr(id));
        while (prog.addrIndex_[slot].addr != invalidAddr)
            slot = (slot + 1) & (slots - 1);
        prog.addrIndex_[slot] = {startAddr(id), id};
        prog.staticInsts_ += pb.ninsts;
        prog.staticBytes_ += prog.blocks_.back().sizeBytes();
    }

    // Pass 3: validate fall-through structure — every block that can
    // fall through (or that calls, since calls return to their
    // fall-through address) must be followed, contiguously, by
    // another block of the same function.
    for (const BasicBlock &b : prog.blocks_) {
        const bool needsSuccessor =
            canFallThrough(b.terminator()) ||
            b.terminator() == BranchKind::Call ||
            b.terminator() == BranchKind::IndirectCall;
        if (!needsSuccessor)
            continue;
        const BasicBlock *next = prog.blockAtAddr(b.fallThroughAddr());
        if (next == nullptr || next->func() != b.func()) {
            fatal("block " + std::to_string(b.id()) + " in function '" +
                  functions_[b.func()].name +
                  "' falls through past the end of its function");
        }
    }

    prog.functions_ = std::move(functions_);
    prog.numbers_ = std::move(numbers_);
    prog.targets_ = std::move(targets_);
    prog.phaseLengths_ = std::move(phaseLengths_);
    prog.entry_ = entry_;
    return prog;
}

} // namespace rsel
