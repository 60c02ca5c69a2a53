#include "common/codec.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace omni::codec {

// --- Byte codec --------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::var(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::svar(std::int64_t v) {
  var((static_cast<std::uint64_t>(v) << 1) ^
      static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::str(std::string_view s) {
  var(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

bool ByteReader::take(std::size_t n, const std::uint8_t** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  const std::uint8_t* p;
  return take(1, &p) ? *p : 0;
}

std::uint32_t ByteReader::u32() {
  const std::uint8_t* p;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint8_t* p;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double ByteReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::var() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t* p;
    if (!take(1, &p)) return 0;
    v |= static_cast<std::uint64_t>(*p & 0x7f) << shift;
    if ((*p & 0x80) == 0) return v;
  }
  ok_ = false;  // varint longer than 10 bytes: malformed
  return 0;
}

std::int64_t ByteReader::svar() {
  std::uint64_t z = var();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string ByteReader::str() {
  std::uint64_t n = var();
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void ByteReader::raw(std::size_t n, std::vector<std::uint8_t>& out) {
  out.clear();
  const std::uint8_t* p;
  if (!take(n, &p)) return;
  out.assign(p, p + n);
}

// --- Sectioned container -----------------------------------------------------

Section& SectionContainer::section(std::uint32_t id) {
  auto it = std::lower_bound(
      sections.begin(), sections.end(), id,
      [](const Section& s, std::uint32_t key) { return s.id < key; });
  if (it != sections.end() && it->id == id) return *it;
  return *sections.insert(it, Section{id, {}});
}

const Section* SectionContainer::find(std::uint32_t id) const {
  for (const Section& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::vector<std::uint8_t> serialize_container(const SectionContainer& c,
                                              const ContainerSpec& spec) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(spec.magic[0]));
  w.u8(static_cast<std::uint8_t>(spec.magic[1]));
  w.u8(static_cast<std::uint8_t>(spec.magic[2]));
  w.u8(static_cast<std::uint8_t>(spec.magic[3]));
  w.u32(c.version);
  w.u32(static_cast<std::uint32_t>(c.sections.size()));
  for (const Section& s : c.sections) {
    w.u32(s.id);
    w.u64(s.bytes.size());
    w.u64(fnv1a64(s.bytes));
  }
  // Trailer guards the header + table themselves (a bit-flip in a size or
  // checksum field must be detected too, not misattributed to a payload).
  const std::uint64_t head_sum = fnv1a64(w.bytes());
  std::vector<std::uint8_t> out = w.take();
  for (const Section& s : c.sections) {
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
  }
  ByteWriter tail;
  tail.u64(head_sum);
  const std::vector<std::uint8_t>& t = tail.bytes();
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

Result<SectionContainer> parse_container(std::span<const std::uint8_t> data,
                                         const ContainerSpec& spec) {
  using R = Result<SectionContainer>;
  const std::string what = spec.what;
  if (data.size() < 12) return R::error(what + " truncated: no header");
  if (std::memcmp(data.data(), spec.magic, 4) != 0) {
    return R::error("not a " + what + " file (bad magic)");
  }
  ByteReader r(data);
  r.u32();  // magic, verified above
  SectionContainer c;
  c.version = r.u32();
  if (c.version != spec.version) {
    return R::error("unsupported " + what + " version " +
                    std::to_string(c.version) + " (expected " +
                    std::to_string(spec.version) + ")");
  }
  const std::uint32_t count = r.u32();
  // Bound the table before trusting it: each entry is 20 bytes.
  if (!r.ok() || r.remaining() < static_cast<std::size_t>(count) * 20) {
    return R::error(what + " truncated: section table cut short");
  }
  struct Entry {
    std::uint32_t id;
    std::uint64_t size;
    std::uint64_t checksum;
  };
  std::vector<Entry> table;
  table.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.id = r.u32();
    e.size = r.u64();
    e.checksum = r.u64();
    table.push_back(e);
  }
  const std::size_t head_bytes = 12 + static_cast<std::size_t>(count) * 20;
  const std::uint64_t head_sum =
      fnv1a64(std::span<const std::uint8_t>(data.data(), head_bytes));
  std::uint32_t prev_id = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Entry& e = table[i];
    if (i > 0 && e.id <= prev_id) {
      return R::error(what + " corrupt: section table ids not ascending");
    }
    prev_id = e.id;
    if (e.size > r.remaining()) {
      return R::error(what + " truncated: section '" +
                      spec.section_name(e.id) + "' extends past end of file");
    }
    Section s;
    s.id = e.id;
    r.raw(static_cast<std::size_t>(e.size), s.bytes);
    if (fnv1a64(s.bytes) != e.checksum) {
      return R::error(what + " corrupt: checksum mismatch in section '" +
                      spec.section_name(e.id) + "'");
    }
    c.sections.push_back(std::move(s));
  }
  if (r.remaining() < 8) {
    return R::error(what + " truncated: missing trailer checksum");
  }
  if (r.u64() != head_sum) {
    return R::error(what + " corrupt: header/table checksum mismatch");
  }
  if (!r.done()) {
    return R::error(what + " corrupt: trailing bytes after trailer");
  }
  return c;
}

std::uint64_t container_digest(const SectionContainer& c,
                               const ContainerSpec& spec) {
  return fnv1a64(serialize_container(c, spec));
}

std::string diff_containers(const SectionContainer& a,
                            const SectionContainer& b,
                            const ContainerSpec& spec) {
  std::string out;
  auto note = [&out](const std::string& line) {
    if (!out.empty()) out += "; ";
    out += line;
  };
  std::size_t ia = 0, ib = 0;
  while (ia < a.sections.size() || ib < b.sections.size()) {
    const Section* sa = ia < a.sections.size() ? &a.sections[ia] : nullptr;
    const Section* sb = ib < b.sections.size() ? &b.sections[ib] : nullptr;
    if (sb == nullptr || (sa != nullptr && sa->id < sb->id)) {
      note(std::string("section '") + spec.section_name(sa->id) +
           "' only in first");
      ++ia;
      continue;
    }
    if (sa == nullptr || sb->id < sa->id) {
      note(std::string("section '") + spec.section_name(sb->id) +
           "' only in second");
      ++ib;
      continue;
    }
    ++ia;
    ++ib;
    if (sa->bytes == sb->bytes) continue;
    std::size_t off = 0;
    const std::size_t lim = std::min(sa->bytes.size(), sb->bytes.size());
    while (off < lim && sa->bytes[off] == sb->bytes[off]) ++off;
    note(std::string("section '") + spec.section_name(sa->id) +
         "' diverges (" + std::to_string(sa->bytes.size()) + " vs " +
         std::to_string(sb->bytes.size()) + " bytes, first difference at +" +
         std::to_string(off) + ")");
  }
  return out;
}

}  // namespace omni::codec
