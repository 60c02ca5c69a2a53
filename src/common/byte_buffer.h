// Bounds-checked binary serialization.
//
// ByteWriter appends big-endian integers and raw byte runs to a Bytes vector;
// ByteReader consumes them, reporting truncation through Result rather than
// reading out of bounds. All multi-byte integers are big-endian on the wire
// (network order), matching the paper's packed-struct framing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "common/types.h"

namespace omni {

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(std::span<const std::uint8_t> bytes);
  /// Length-prefixed (u32) byte run.
  void blob(std::span<const std::uint8_t> bytes);
  /// Length-prefixed (u32) UTF-8 string.
  void str(const std::string& s);

  std::size_t size() const { return out_.size(); }
  const Bytes& bytes() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  Bytes out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  // The fixed-width readers are inline: packet decoding runs once per
  // received frame, and an out-of-line call per field costs more than the
  // read itself (GCC folds the shift loops into single byte-swapped loads).
  Result<std::uint8_t> u8() {
    if (!need(1)) return Result<std::uint8_t>::error("truncated u8");
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() {
    if (!need(2)) return Result<std::uint16_t>::error("truncated u16");
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    if (!need(4)) return Result<std::uint32_t>::error("truncated u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> u64() {
    if (!need(8)) return Result<std::uint64_t>::error("truncated u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }
  /// Read exactly out.size() bytes into a caller-provided buffer (no
  /// allocation, unlike raw()). False on truncation, consuming nothing.
  bool raw_into(std::span<std::uint8_t> out) {
    if (!need(out.size())) return false;
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
                out.begin());
    pos_ += out.size();
    return true;
  }
  /// Read exactly n bytes as a view into the reader's input, valid as long
  /// as that input (no copy, unlike raw()).
  Result<BytesView> view(std::size_t n) {
    if (!need(n)) return Result<BytesView>::error("truncated raw bytes");
    BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// Read exactly n raw bytes.
  Result<Bytes> raw(std::size_t n);
  /// Read a u32 length prefix then that many bytes.
  Result<Bytes> blob();
  /// Read a u32 length prefix then that many bytes as a string.
  Result<std::string> str();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  bool need(std::size_t n) const { return remaining() >= n; }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace omni
