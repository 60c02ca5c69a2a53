// Shared byte codec + sectioned binary container.
//
// One hardened encoding for durable byte streams: the `.osnap` snapshot
// files (sim/snapshot.h) are an instance of this container shape,
// parameterized by magic, version, and section-name table.
// docs/FORMATS.md is the normative specification of this layout.
//
// Container layout (little-endian):
//   magic (4 bytes) | u32 version | u32 section_count
//   section table: { u32 id, u64 size, u64 fnv1a64(payload) } * count
//   payloads, in table order
//   u64 fnv1a64(header + table)
//
// Loading is fail-soft and hardened: truncation, bad magic, unknown
// versions, and bit-flips anywhere (table or payload) fail with a
// diagnostic naming the damaged section — never UB. Section ids must be
// ascending and unique; unknown ids survive a parse/serialize round trip
// (forward compatibility for additive sections).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace omni::codec {

// --- Byte codec --------------------------------------------------------------

/// Append-only little-endian encoder used by every section writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// LEB128-style varint (7 bits per byte).
  void var(std::uint64_t v);
  /// Zigzag varint for signed values.
  void svar(std::int64_t v);
  /// var(length) + raw bytes.
  void str(std::string_view s);

  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder: any overrun or malformed varint sets the fail
/// flag and yields zeros/empties from then on — corrupted input can produce
/// garbage values but never UB. Callers check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::uint64_t var();
  std::int64_t svar();
  std::string str();
  /// Copy the next n raw bytes into `out` (replacing its contents); on
  /// overrun sets the fail flag and leaves `out` empty.
  void raw(std::size_t n, std::vector<std::uint8_t>& out);

  bool ok() const { return ok_; }
  /// Mark the stream bad from the outside: a caller that decodes a value in
  /// range but semantically invalid (bad enum tag, over-limit length) fails
  /// the whole read the same way an overrun would, so enclosing section
  /// decoders reject with one check.
  void fail() { ok_ = false; }
  /// True once every byte has been consumed without error.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n, const std::uint8_t** out);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- Sectioned container -----------------------------------------------------

/// One container section: a stable id plus an opaque payload whose internal
/// layout is owned by the writer of that id.
struct Section {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> bytes;
};

/// An ordered set of sections plus the format version that serialized them.
struct SectionContainer {
  std::uint32_t version = 2;
  /// Ascending by id (section() maintains the order).
  std::vector<Section> sections;

  /// The section with `id`, created empty (in id order) if absent.
  Section& section(std::uint32_t id);
  const Section* find(std::uint32_t id) const;
};

/// Static description of one container format instance (e.g. snapshot):
/// everything parse/serialize need beyond the bytes themselves.
struct ContainerSpec {
  /// Exactly 4 magic bytes opening the stream.
  char magic[4];
  /// The one version this build reads and writes (readers reject others).
  std::uint32_t version;
  /// Noun used in diagnostics ("snapshot").
  const char* what;
  /// Human name for a section id; must tolerate unknown ids.
  const char* (*section_name)(std::uint32_t id);
};

std::vector<std::uint8_t> serialize_container(const SectionContainer& c,
                                              const ContainerSpec& spec);

/// Full hardening: magic, version, table bounds, ascending ids, per-section
/// and trailer checksums. Error messages name the damaged piece using
/// `spec.what` and `spec.section_name`.
Result<SectionContainer> parse_container(std::span<const std::uint8_t> data,
                                         const ContainerSpec& spec);

/// fnv1a64 over the canonical serialization — one number identifying the
/// whole container.
std::uint64_t container_digest(const SectionContainer& c,
                               const ContainerSpec& spec);

/// "" when the containers carry byte-identical sections; otherwise a
/// diagnostic naming every divergent/missing section and the first
/// differing byte offset.
std::string diff_containers(const SectionContainer& a,
                            const SectionContainer& b,
                            const ContainerSpec& spec);

}  // namespace omni::codec
