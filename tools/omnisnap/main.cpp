// omnisnap: inspect, verify, and diff .osnap snapshot files.
//
//   $ omnisnap inspect run.osnap          # manifest + per-section summary
//   $ omnisnap verify run.osnap           # full integrity check + round-trip
//   $ omnisnap diff a.osnap b.osnap       # section-level byte comparison
//   $ omnisnap diff --state a.osnap b.osnap   # ignore manifests (A/B runs)
//
// `verify` exercises the same hardened loader the engine uses (magic,
// version, table bounds, per-section checksums, trailer) and additionally
// proves the parse/serialize round trip is byte-identical. Exit status: 0 on
// success / no differences, 1 on corruption or divergence, 2 on usage.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "omni/manager_snapshot.h"
#include "sim/snapshot.h"

namespace {

int cmd_inspect(const std::string& path) {
  auto snap = omni::sim::read_snapshot_file(path);
  if (!snap.is_ok()) {
    std::fprintf(stderr, "omnisnap: %s\n", snap.error_message().c_str());
    return 1;
  }
  std::printf("%s", omni::sim::describe_snapshot(snap.value()).c_str());
  // Per-manager breakdown when the managers section is present.
  if (const auto* sec = snap.value().find(omni::sim::kSecManagers)) {
    auto records = omni::list_manager_records(*sec);
    for (const auto& [address, size] : records) {
      std::printf("  manager %016llx: %zu bytes\n",
                  static_cast<unsigned long long>(address), size);
    }
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  auto snap = omni::sim::read_snapshot_file(path);
  if (!snap.is_ok()) {
    std::fprintf(stderr, "omnisnap: FAIL: %s\n", snap.error_message().c_str());
    return 1;
  }
  // Round trip: serialize the parsed form and parse it back; both the bytes
  // and the reparse must agree with the original.
  const std::vector<std::uint8_t> bytes =
      omni::sim::serialize_snapshot(snap.value());
  auto reparsed = omni::sim::parse_snapshot(bytes);
  if (!reparsed.is_ok()) {
    std::fprintf(stderr, "omnisnap: FAIL: round trip did not reparse: %s\n",
                 reparsed.error_message().c_str());
    return 1;
  }
  const std::string diff =
      omni::sim::diff_snapshots(snap.value(), reparsed.value());
  if (!diff.empty()) {
    std::fprintf(stderr, "omnisnap: FAIL: round trip diverged:\n%s\n",
                 diff.c_str());
    return 1;
  }
  std::printf("OK %s (%zu bytes, %zu sections, digest %016llx)\n",
              path.c_str(), bytes.size(), snap.value().sections.size(),
              static_cast<unsigned long long>(
                  omni::sim::snapshot_digest(snap.value())));
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path,
             bool state_only) {
  auto a = omni::sim::read_snapshot_file(a_path);
  auto b = omni::sim::read_snapshot_file(b_path);
  if (!a.is_ok() || !b.is_ok()) {
    std::fprintf(stderr, "omnisnap: %s\n",
                 (!a.is_ok() ? a : b).error_message().c_str());
    return 1;
  }
  const std::string diff =
      omni::sim::diff_snapshots(a.value(), b.value(), state_only);
  if (diff.empty()) {
    std::printf("identical%s\n", state_only ? " (manifests ignored)" : "");
    return 0;
  }
  std::printf("%s", diff.c_str());
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: omnisnap inspect <file.osnap>\n"
               "       omnisnap verify <file.osnap>\n"
               "       omnisnap diff [--state] <a.osnap> <b.osnap>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "inspect" && argc == 3) return cmd_inspect(argv[2]);
  if (cmd == "verify" && argc == 3) return cmd_verify(argv[2]);
  if (cmd == "diff") {
    bool state_only = false;
    int i = 2;
    if (i < argc && std::strcmp(argv[i], "--state") == 0) {
      state_only = true;
      ++i;
    }
    if (argc - i == 2) return cmd_diff(argv[i], argv[i + 1], state_only);
  }
  return usage();
}
