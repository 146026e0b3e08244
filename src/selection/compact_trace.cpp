#include "selection/compact_trace.hpp"

#include "program/program.hpp"
#include "support/error.hpp"

namespace rsel {

namespace {

// 2-bit branch codes from the paper's Figure 14.
constexpr std::uint64_t codeEnd = 0b00;      // end of trace
constexpr std::uint64_t codeIndirect = 0b01; // taken, target appended
constexpr std::uint64_t codeNotTaken = 0b10; // conditional not taken
constexpr std::uint64_t codeTaken = 0b11;    // taken, target in inst

constexpr unsigned addrBits = 64;
constexpr unsigned wordBits = 64;

/** Hard cap so a corrupt bit string cannot loop a decoder forever. */
constexpr std::size_t maxDecodedBlocks = 1u << 20;

} // namespace

void
CompactTrace::appendBits(std::uint64_t value, unsigned nbits)
{
    // Whole-field moves: the field lands in the current word's free
    // high bits and, when it straddles a word boundary, its rest
    // opens the next word.
    RSEL_ASSERT(nbits == wordBits || value >> nbits == 0,
                "compact trace field wider than its bit count");
    const unsigned off = static_cast<unsigned>(bitLen_ % wordBits);
    if (off == 0) {
        words_.push_back(value);
    } else {
        words_.back() |= value << off;
        if (off + nbits > wordBits)
            words_.push_back(value >> (wordBits - off));
    }
    bitLen_ += nbits;
}

std::uint64_t
CompactTrace::readBits(std::uint64_t &cursor, unsigned nbits) const
{
    RSEL_ASSERT(cursor + nbits <= bitLen_,
                "compact trace bit stream underrun");
    const std::size_t word = cursor / wordBits;
    const unsigned off = static_cast<unsigned>(cursor % wordBits);
    std::uint64_t value = words_[word] >> off;
    if (off + nbits > wordBits)
        value |= words_[word + 1] << (wordBits - off);
    cursor += nbits;
    return nbits == wordBits ? value
                             : value & ((std::uint64_t{1} << nbits) - 1);
}

CompactTrace
CompactTrace::encode(const std::vector<const BasicBlock *> &path)
{
    CompactTrace ct;
    ct.encodeInto(path);
    return ct;
}

void
CompactTrace::encodeInto(const std::vector<const BasicBlock *> &path)
{
    RSEL_ASSERT(!path.empty(), "cannot encode an empty trace");

    words_.clear();
    bitLen_ = 0;
    // Two bits per transition plus the tail covers every path
    // without indirect branches, the common case.
    words_.reserve((2 * path.size() + 2 + addrBits) / wordBits + 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const BasicBlock *b = path[i];
        const BasicBlock *next = path[i + 1];
        switch (b->terminator()) {
          case BranchKind::None:
            // Fall-through block boundary: not a branch, no bits.
            RSEL_ASSERT(next->startAddr() == b->fallThroughAddr(),
                        "fall-through successor mismatch");
            break;
          case BranchKind::CondDirect:
            if (next->startAddr() == b->takenTarget()) {
                appendBits(codeTaken, 2);
            } else {
                RSEL_ASSERT(next->startAddr() == b->fallThroughAddr(),
                            "conditional successor mismatch");
                appendBits(codeNotTaken, 2);
            }
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            RSEL_ASSERT(next->startAddr() == b->takenTarget(),
                        "direct successor mismatch");
            appendBits(codeTaken, 2);
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return:
            appendBits(codeIndirect, 2);
            appendBits(next->startAddr(), addrBits);
            break;
          case BranchKind::Halt:
            panic("a trace cannot continue past a halt");
        }
    }
    appendBits(codeEnd, 2);
    appendBits(path.back()->lastInstAddr(), addrBits);
}

std::vector<const BasicBlock *>
CompactTrace::decode(const Program &prog, Addr entryAddr) const
{
    std::vector<const BasicBlock *> path;
    decodeInto(prog, entryAddr, path);
    return path;
}

void
CompactTrace::decodeInto(const Program &prog, Addr entryAddr,
                         std::vector<const BasicBlock *> &path) const
{
    RSEL_ASSERT(bitLen_ >= 2 + addrBits, "truncated compact trace");

    // The end marker is the tail of the bit string; read it first so
    // fall-through boundaries (which encode no bits) can be followed
    // without ambiguity.
    std::uint64_t tailCursor = bitLen_ - addrBits;
    const Addr endAddr = readBits(tailCursor, addrBits);

    const BasicBlock *current = prog.blockAtAddr(entryAddr);
    RSEL_ASSERT(current != nullptr, "trace entry is not a block");

    path.clear();
    // Every encoded branch is at least two bits; fall-through
    // boundaries add blocks beyond this estimate.
    path.reserve((bitLen_ - addrBits) / 2);
    path.push_back(current);
    std::uint64_t cursor = 0;
    while (current->lastInstAddr() != endAddr) {
        RSEL_ASSERT(path.size() < maxDecodedBlocks,
                    "compact trace decode runaway");
        const BasicBlock *next = nullptr;
        switch (current->terminator()) {
          case BranchKind::None:
            next = prog.fallThroughOf(*current);
            break;
          case BranchKind::CondDirect: {
            const std::uint64_t code = readBits(cursor, 2);
            if (code == codeTaken) {
                next = prog.blockAtAddr(current->takenTarget());
            } else {
                RSEL_ASSERT(code == codeNotTaken,
                            "unexpected branch code in compact trace");
                next = prog.fallThroughOf(*current);
            }
            break;
          }
          case BranchKind::Jump:
          case BranchKind::Call: {
            const std::uint64_t code = readBits(cursor, 2);
            RSEL_ASSERT(code == codeTaken,
                        "direct branch must be encoded taken");
            next = prog.blockAtAddr(current->takenTarget());
            break;
          }
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return: {
            const std::uint64_t code = readBits(cursor, 2);
            RSEL_ASSERT(code == codeIndirect,
                        "indirect branch must carry a target");
            next = prog.blockAtAddr(readBits(cursor, addrBits));
            break;
          }
          case BranchKind::Halt:
            panic("decoded trace runs past a halt");
        }
        current = next;
        RSEL_ASSERT(current != nullptr,
                    "decoded trace target is not a block");
        path.push_back(current);
    }

    // Sanity: all payload bits must be consumed up to the end marker.
    const std::uint64_t endMarker = readBits(cursor, 2);
    RSEL_ASSERT(endMarker == codeEnd, "missing end-of-trace marker");
    RSEL_ASSERT(cursor == bitLen_ - addrBits,
                "compact trace has trailing garbage");
}

} // namespace rsel
