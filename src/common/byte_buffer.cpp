#include "common/byte_buffer.h"

namespace omni {

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::blob(std::span<const std::uint8_t> bytes) {
  u32(static_cast<std::uint32_t>(bytes.size()));
  raw(bytes);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

Result<Bytes> ByteReader::raw(std::size_t n) {
  auto bytes = view(n);
  if (!bytes) return Result<Bytes>::error(bytes.error_message());
  return Bytes(bytes.value().begin(), bytes.value().end());
}

Result<Bytes> ByteReader::blob() {
  auto len = u32();
  if (!len) return Result<Bytes>::error(len.error_message());
  return raw(len.value());
}

Result<std::string> ByteReader::str() {
  auto bytes = blob();
  if (!bytes) return Result<std::string>::error(bytes.error_message());
  return std::string(bytes.value().begin(), bytes.value().end());
}

}  // namespace omni
