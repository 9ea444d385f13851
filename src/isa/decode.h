// Instruction word decoding.
#ifndef MSIM_ISA_DECODE_H_
#define MSIM_ISA_DECODE_H_

#include <cstdint>

#include "isa/isa.h"

namespace msim {

// Decodes a 32-bit instruction word. Unknown encodings yield kIllegal (the
// pipeline turns that into an IllegalInstruction exception); decoding itself
// never fails.
Decoded DecodeInstr(uint32_t word);

namespace decode_internal {

inline constexpr uint32_t kMemoBits = 12;

// One table per thread, direct-mapped on a multiplicative hash of the word
// and tagged by the full word (Decoded::raw). Every slot starts as Decoded{},
// which is DecodeInstr(0), so a slot is always a correct decode of its own
// tag and needs no valid bit.
inline thread_local Decoded decode_memo[1u << kMemoBits];

inline uint32_t MemoIndex(uint32_t word) { return (word * 0x9E3779B1u) >> (32 - kMemoBits); }

}  // namespace decode_internal

// DecodeInstr memoized by the word itself. Since the decode is a pure
// function of the word, an entry can never go stale: no store, loader write,
// corruption, scrub or restore has to tell the memo anything. The per-cycle
// fetch path reads the word from its backing store and decodes through here.
inline const Decoded& DecodeMemoized(uint32_t word) {
  Decoded& slot = decode_internal::decode_memo[decode_internal::MemoIndex(word)];
  if (slot.raw != word) {
    slot = DecodeInstr(word);
  }
  return slot;
}

}  // namespace msim

#endif  // MSIM_ISA_DECODE_H_
