// Bit-manipulation helpers shared by the ISA encoder/decoder and the MMU.
#ifndef MSIM_SUPPORT_BITS_H_
#define MSIM_SUPPORT_BITS_H_

#include <cstdint>

namespace msim {

// Extracts bits [hi:lo] (inclusive) of `value`, right-aligned.
constexpr uint32_t Bits(uint32_t value, unsigned hi, unsigned lo) {
  return (value >> lo) & ((hi - lo == 31u) ? 0xFFFFFFFFu : ((1u << (hi - lo + 1)) - 1u));
}

// Extracts a single bit.
constexpr uint32_t Bit(uint32_t value, unsigned pos) { return (value >> pos) & 1u; }

// Sign-extends the low `bits` bits of `value` to 32 bits.
constexpr int32_t SignExtend(uint32_t value, unsigned bits) {
  const uint32_t shift = 32u - bits;
  return static_cast<int32_t>(value << shift) >> shift;
}

// True if `value` fits in a signed `bits`-bit immediate.
constexpr bool FitsSigned(int64_t value, unsigned bits) {
  const int64_t lo = -(int64_t{1} << (bits - 1));
  const int64_t hi = (int64_t{1} << (bits - 1)) - 1;
  return value >= lo && value <= hi;
}

// True if `value` fits in an unsigned `bits`-bit field.
constexpr bool FitsUnsigned(uint64_t value, unsigned bits) {
  return bits >= 64 || value < (uint64_t{1} << bits);
}

// True if `value` is a power of two (and non-zero).
constexpr bool IsPowerOfTwo(uint64_t value) { return value != 0 && (value & (value - 1)) == 0; }

// Rounds `value` up to the next multiple of `align` (align must be a power of two).
constexpr uint32_t AlignUp(uint32_t value, uint32_t align) {
  return (value + align - 1) & ~(align - 1);
}

// Rounds `value` down to a multiple of `align` (align must be a power of two).
constexpr uint32_t AlignDown(uint32_t value, uint32_t align) { return value & ~(align - 1); }

}  // namespace msim

#endif  // MSIM_SUPPORT_BITS_H_
