// Byte-exact binary serialization primitives for machine snapshots.
//
// SnapWriter/SnapReader implement a tiny little-endian wire format used by
// the checkpoint/restore layer (snap/snapshot.h) and the divergence detector
// (snap/diverge.h). Design constraints, in order:
//   * byte-exact determinism: the same machine state always serializes to the
//     same bytes, so snapshot files can be diffed and digests compared;
//   * streaming digest: in digest-only mode the writer folds every byte into
//     an FNV-1a hash as it goes and buffers nothing, so per-cycle state
//     digests cost no allocation. A buffering writer does not hash while it
//     writes; its digest() hashes the buffer on demand;
//   * explicit failure: the reader never aborts — truncated or oversized
//     input trips a sticky failure flag the caller converts into a Status.
// No endianness, padding or struct-layout assumptions leak into the format:
// every field is written value-by-value.
#ifndef MSIM_SNAP_SNAPSTREAM_H_
#define MSIM_SNAP_SNAPSTREAM_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.h"

namespace msim {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

class SnapWriter {
 public:
  enum class Mode { kBuffer, kDigestOnly };

  explicit SnapWriter(Mode mode = Mode::kBuffer) : mode_(mode) {}

  void U8(uint8_t v) { Append(&v, 1); }
  void U16(uint16_t v) {
    uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
    Append(b, 2);
  }
  void U32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(b, 4);
  }
  void U64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(b, 8);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }

  // Length-prefixed byte array / string.
  void Bytes(const uint8_t* data, size_t size) {
    U64(static_cast<uint64_t>(size));
    Append(data, size);
  }
  void Bytes(const std::vector<uint8_t>& data) { Bytes(data.data(), data.size()); }
  void Str(std::string_view text) {
    Bytes(reinterpret_cast<const uint8_t*>(text.data()), text.size());
  }

  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buffer_); }
  // FNV-1a of everything written (of a buffering writer: of what bytes()
  // still holds, so call it before TakeBytes()).
  uint64_t digest() const {
    return mode_ == Mode::kDigestOnly ? digest_ : Fnv(kFnvOffsetBasis, buffer_.data(),
                                                      buffer_.size());
  }
  uint64_t size() const { return written_; }

 private:
  static uint64_t Fnv(uint64_t digest, const uint8_t* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      digest = (digest ^ data[i]) * kFnvPrime;
    }
    return digest;
  }

  void Append(const uint8_t* data, size_t size) {
    written_ += size;
    if (mode_ == Mode::kBuffer) {
      buffer_.insert(buffer_.end(), data, data + size);
    } else {
      digest_ = Fnv(digest_, data, size);
    }
  }

  Mode mode_;
  std::vector<uint8_t> buffer_;
  uint64_t digest_ = kFnvOffsetBasis;
  uint64_t written_ = 0;
};

class SnapReader {
 public:
  SnapReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit SnapReader(const std::vector<uint8_t>& data)
      : SnapReader(data.data(), data.size()) {}
  // The reader aliases its input, so it must outlive the reader.
  explicit SnapReader(std::vector<uint8_t>&&) = delete;

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t U8() {
    uint8_t b[1] = {};
    Take(b, 1);
    return b[0];
  }
  uint16_t U16() {
    uint8_t b[2] = {};
    Take(b, 2);
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
  }
  uint32_t U32() {
    uint8_t b[4] = {};
    Take(b, 4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(b[i]) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    uint8_t b[8] = {};
    Take(b, 8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }
  bool Bool() { return U8() != 0; }

  // A length-prefixed byte array, viewed in place: the span aliases the
  // reader's input and is empty once the reader has failed.
  std::span<const uint8_t> BytesView() {
    const uint64_t size = U64();
    if (!ok_ || size > remaining()) {
      ok_ = false;
      return {};
    }
    const std::span<const uint8_t> out(data_ + pos_, size);
    pos_ += size;
    return out;
  }
  std::vector<uint8_t> Bytes() {
    const std::span<const uint8_t> view = BytesView();
    return std::vector<uint8_t>(view.begin(), view.end());
  }
  std::string Str() {
    const std::span<const uint8_t> view = BytesView();
    return std::string(view.begin(), view.end());
  }

  // Converts the sticky failure flag into a Status, naming the consumer.
  Status ToStatus(const char* what) const {
    if (ok_) {
      return Status::Ok();
    }
    return InvalidArgument(std::string("truncated or malformed snapshot data while reading ") +
                           what);
  }

 private:
  void Take(uint8_t* out, size_t size) {
    if (!ok_ || size > remaining()) {
      ok_ = false;
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace msim

#endif  // MSIM_SNAP_SNAPSTREAM_H_
