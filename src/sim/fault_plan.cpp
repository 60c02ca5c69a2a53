#include "sim/fault_plan.h"

#include "common/hash.h"

namespace omni::sim {

double FaultPlan::draw(std::uint64_t stream, NodeId src, NodeId dst,
                       TimePoint at, std::uint64_t salt) const {
  std::uint64_t h = splitmix64(seed_ ^ stream);
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(src) << 32) |
                      static_cast<std::uint64_t>(dst)));
  h = splitmix64(h ^ static_cast<std::uint64_t>(at.as_micros()));
  h = splitmix64(h ^ salt);
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultPlan::matches(const LinkFault& f, NodeId src, NodeId dst,
                        FaultRadio radio, TimePoint at) {
  if (at < f.start || at >= f.end) return false;
  if (f.radio != FaultRadio::kAll && f.radio != radio) return false;
  if (f.src != kAnyNode && f.src != src) return false;
  if (f.dst != kAnyNode && f.dst != dst) return false;
  return true;
}

bool FaultPlan::dropped(NodeId src, NodeId dst, FaultRadio radio, TimePoint at,
                        std::uint64_t salt) const {
  // Independent loss processes compose: survive each matching entry.
  for (std::size_t i = 0; i < link_faults_.size(); ++i) {
    const LinkFault& f = link_faults_[i];
    if (f.loss <= 0.0 || !matches(f, src, dst, radio, at)) continue;
    if (f.loss >= 1.0) return true;
    // Stream 1 = loss draws; fold in the entry index so two overlapping
    // entries sample independently.
    if (draw(1 + (i << 8), src, dst, at, salt) < f.loss) return true;
  }
  return false;
}

bool FaultPlan::corrupted(NodeId src, NodeId dst, FaultRadio radio,
                          TimePoint at, std::uint64_t salt) const {
  for (std::size_t i = 0; i < link_faults_.size(); ++i) {
    const LinkFault& f = link_faults_[i];
    if (f.corrupt <= 0.0 || !matches(f, src, dst, radio, at)) continue;
    if (f.corrupt >= 1.0) return true;
    // Stream 2 = corruption draws.
    if (draw(2 + (i << 8), src, dst, at, salt) < f.corrupt) return true;
  }
  return false;
}

Duration FaultPlan::extra_latency(NodeId src, NodeId dst, FaultRadio radio,
                                  TimePoint at) const {
  Duration total = Duration::zero();
  for (const LinkFault& f : link_faults_) {
    if (f.extra_latency <= Duration::zero()) continue;
    if (!matches(f, src, dst, radio, at)) continue;
    total += f.extra_latency;
  }
  return total;
}

bool FaultPlan::partition_active(TimePoint at) const {
  for (const Partition& p : partitions_) {
    if (at >= p.start && at < p.end) return true;
  }
  return false;
}

bool FaultPlan::partitioned(Vec2 a, Vec2 b, TimePoint at) const {
  for (const Partition& p : partitions_) {
    if (at < p.start || at >= p.end) continue;
    double sa = p.a * a.x + p.b * a.y - p.c;
    double sb = p.a * b.x + p.b * b.y - p.c;
    // Opposite (strict) sides of the boundary line cannot hear each other;
    // a node exactly on the line hears both sides.
    if ((sa < 0 && sb > 0) || (sa > 0 && sb < 0)) return true;
  }
  return false;
}

void FaultPlan::corrupt_in_place(Bytes& frame, std::uint64_t salt) {
  if (frame.empty()) return;
  // Flip a salt-chosen byte plus the first byte: packet decoders key on the
  // leading type/version octets, so the frame reliably fails to parse
  // rather than aliasing into a different valid packet.
  std::uint64_t h = splitmix64(salt ^ 0xc0412u);
  frame[h % frame.size()] ^= static_cast<std::uint8_t>(0x80u | (h >> 56));
  frame[0] ^= 0xa5u;
}

}  // namespace omni::sim
