/**
 * @file
 * Compact observed-trace representation (paper Figure 14).
 *
 * Trace combination must store several observed traces per profiled
 * entrance until the profiling window closes. To keep that memory
 * small, each trace is stored as a bit string: two bits per branch
 * ("10" = conditional not taken, "11" = taken with a target known
 * from the instruction, "01" = taken indirect followed by the 64-bit
 * target address), terminated by "00" and the address of the last
 * instruction of the trace. Fall-through block boundaries encode no
 * bits — the decoder follows them implicitly.
 */

#ifndef RSEL_SELECTION_COMPACT_TRACE_HPP
#define RSEL_SELECTION_COMPACT_TRACE_HPP

#include <cstdint>
#include <vector>

#include "isa/basic_block.hpp"

namespace rsel {

class Program;

/** A compactly encoded observed trace. */
class CompactTrace
{
  public:
    /** An empty trace (no bits), for encodeInto() to fill. */
    CompactTrace() = default;

    /**
     * Encode a recorded trace.
     * @param path blocks in execution order; non-empty. Consecutive
     *             blocks must be connected in the program (taken
     *             branch or fall-through).
     */
    static CompactTrace encode(const std::vector<const BasicBlock *> &path);

    /**
     * Replace this trace with the encoding of `path` (as encode()),
     * reusing the word buffer: a trace no longer than one stored
     * before allocates nothing.
     */
    void encodeInto(const std::vector<const BasicBlock *> &path);

    /**
     * Decode back into a block path.
     * @param prog      the program the trace was recorded from.
     * @param entryAddr start address of the trace.
     */
    std::vector<const BasicBlock *> decode(const Program &prog,
                                           Addr entryAddr) const;

    /** decode() into `path`, which is cleared first (its capacity
     *  is reused). */
    void decodeInto(const Program &prog, Addr entryAddr,
                    std::vector<const BasicBlock *> &path) const;

    /**
     * Storage footprint in bytes (the paper's Figure 18 memory
     * metric): the bit string rounded up to whole bytes.
     */
    std::uint64_t sizeBytes() const { return (bitLen_ + 7) / 8; }

    /** Number of payload bits (for tests). */
    std::uint64_t bitLength() const { return bitLen_; }

  private:
    /** Append the low `nbits` bits of `value` (nbits <= 64). */
    void appendBits(std::uint64_t value, unsigned nbits);
    std::uint64_t readBits(std::uint64_t &cursor, unsigned nbits) const;

    /** The bit string, LSB-first: stream bit k is bit k % 64 of
     *  word k / 64. Bits past bitLen_ are zero. */
    std::vector<std::uint64_t> words_;
    std::uint64_t bitLen_ = 0;
};

} // namespace rsel

#endif // RSEL_SELECTION_COMPACT_TRACE_HPP
