// Snapshot engine (sim/snapshot.h, net/testbed.h snapshot surface).
//
// Coverage:
//   * byte codec and snapshot container round trips;
//   * hardened loading — truncation, bad magic, unknown version, bit flips
//     in the table and in every section payload, trailing garbage — all
//     fail with a diagnostic naming the damage, never UB, in synthetic
//     containers and in real checkpoint files;
//   * canonical cross-thread capture: the same scenario checkpointed at
//     1/2/8 threads (through the scenario DSL `checkpoint every` /
//     `snapshot` directives) compares equal with only the manifest's
//     capturing thread count ignored;
//   * the comparison is not vacuous: captures of a different seed or script
//     name the manifest;
//   * OMNI_ASSERT crash capture: an armed testbed leaves a crash dump
//     (reason + state snapshot) behind on assertion failure.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "net/testbed.h"
#include "scenario/scenario.h"
#include "sim/snapshot.h"

namespace omni::sim {
namespace {

// --- Codec -------------------------------------------------------------------

TEST(SnapshotCodec, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1234.5625);
  w.var(0);
  w.var(127);
  w.var(128);
  w.var(0xFFFFFFFFFFFFFFFFull);
  w.svar(0);
  w.svar(-1);
  w.svar(1);
  w.svar(-9'000'000'000'000LL);
  w.str("hello");
  w.str("");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1234.5625);
  EXPECT_EQ(r.var(), 0u);
  EXPECT_EQ(r.var(), 127u);
  EXPECT_EQ(r.var(), 128u);
  EXPECT_EQ(r.var(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.svar(), 0);
  EXPECT_EQ(r.svar(), -1);
  EXPECT_EQ(r.svar(), 1);
  EXPECT_EQ(r.svar(), -9'000'000'000'000LL);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(SnapshotCodec, ReaderOverrunFailsSoft) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // overrun: zero, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.str(), "");  // stays failed
}

// --- Container / file hardening ---------------------------------------------

Snapshot make_sample() {
  Snapshot snap;
  SnapshotManifest m;
  m.seed = 42;
  m.at = TimePoint::from_micros(1'500'000);
  m.threads = 2;
  m.executed_events = 123;
  m.node_count = 3;
  m.device_count = 3;
  m.label = "sample";
  m.scenario_hash = 0x1234;
  write_manifest(m, snap);
  ByteWriter events;
  for (int i = 0; i < 32; ++i) events.var(static_cast<std::uint64_t>(i * 7));
  snap.section(kSecEvents).bytes = events.take();
  ByteWriter world;
  world.str("world-state");
  snap.section(kSecWorld).bytes = world.take();
  return snap;
}

TEST(SnapshotFile, SerializeParseRoundTrip) {
  const Snapshot snap = make_sample();
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  auto parsed = parse_snapshot(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  EXPECT_EQ(diff_snapshots(snap, parsed.value()), "");
  EXPECT_EQ(snapshot_digest(snap), snapshot_digest(parsed.value()));
}

TEST(SnapshotFile, UnknownSectionsSurviveRoundTrip) {
  Snapshot snap = make_sample();
  snap.section(900).bytes = {1, 2, 3};  // id no current reader knows
  auto parsed = parse_snapshot(serialize_snapshot(snap));
  ASSERT_TRUE(parsed.is_ok());
  const SnapshotSection* sec = parsed.value().find(900);
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->bytes, (std::vector<std::uint8_t>{1, 2, 3}));
}

// Section id 8 once held the bodies of typed events. Captures no longer
// write it; a file that still carries one (written before its retirement)
// parses, keeps it as an unknown id across a round trip, and names it so.
TEST(SnapshotFile, RetiredSection8IsSkippedAsUnknown) {
  Simulator sim;
  sim.after_global(Duration::millis(10), [] {});
  sim.after_global(Duration::millis(20), [] {});
  Snapshot snap = make_sample();
  capture_events(sim, sim.now(), snap);
  EXPECT_EQ(snap.find(8), nullptr);
  ByteReader r(snap.find(kSecEvents)->bytes);
  EXPECT_EQ(r.var(), 2u);  // both pending events, recorded by time

  snap.section(8).bytes = {2, 0, 0};  // the section an older writer added
  auto parsed = parse_snapshot(serialize_snapshot(snap));
  ASSERT_TRUE(parsed.is_ok()) << parsed.error_message();
  EXPECT_NE(parsed.value().find(8), nullptr);
  EXPECT_STREQ(section_name(8), "sec8");
}

TEST(SnapshotFile, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = serialize_snapshot(make_sample());
  bytes[0] = 'X';
  auto parsed = parse_snapshot(bytes);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.error_message().find("magic"), std::string::npos)
      << parsed.error_message();
}

TEST(SnapshotFile, RejectsUnknownVersion) {
  // 1 is the retired layout whose managers record carried two more fields;
  // 2 held digests of mt19937_64 states where the rng section now holds
  // draw counts.
  for (std::uint8_t version :
       {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{99}}) {
    std::vector<std::uint8_t> bytes = serialize_snapshot(make_sample());
    bytes[4] = version;  // version field follows the 4-byte magic
    auto parsed = parse_snapshot(bytes);
    ASSERT_FALSE(parsed.is_ok()) << "version " << int{version};
    EXPECT_EQ(parsed.error_message(),
              "unsupported snapshot version " + std::to_string(version) +
                  " (expected 3)");
  }
}

TEST(SnapshotFile, RejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes = serialize_snapshot(make_sample());
  // Every proper prefix must fail cleanly (truncated header, table,
  // payload, or trailer).
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    auto parsed = parse_snapshot(
        std::span<const std::uint8_t>(bytes.data(), n));
    EXPECT_FALSE(parsed.is_ok()) << "prefix of " << n << " bytes parsed";
  }
}

TEST(SnapshotFile, RejectsEveryBitFlip) {
  const std::vector<std::uint8_t> good = serialize_snapshot(make_sample());
  // Flip one bit in every byte: header, table, payloads, trailer. All must
  // be caught by magic/version checks or a checksum.
  int rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x10;
    if (!parse_snapshot(bad).is_ok()) ++rejected;
  }
  EXPECT_EQ(rejected, static_cast<int>(good.size()));
}

TEST(SnapshotFile, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = serialize_snapshot(make_sample());
  bytes.push_back(0x00);
  EXPECT_FALSE(parse_snapshot(bytes).is_ok());
}

TEST(SnapshotFile, CorruptSectionNamesTheSection) {
  Snapshot snap = make_sample();
  std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  // Corrupt the last payload byte of the file body (inside the 'world'
  // section payload, before the 8-byte trailer).
  bytes[bytes.size() - 9] ^= 0xFF;
  auto parsed = parse_snapshot(bytes);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.error_message().find("world"), std::string::npos)
      << parsed.error_message();
}

TEST(SnapshotFile, MissingFileFailsWithDiagnostic) {
  auto parsed = read_snapshot_file("/nonexistent/dir/x.osnap");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_FALSE(parsed.error_message().empty());
}

TEST(SnapshotFile, DiffReportsDivergentSection) {
  Snapshot a = make_sample();
  Snapshot b = make_sample();
  b.section(kSecEvents).bytes[3] ^= 0x01;
  const std::string diff = diff_snapshots(a, b);
  EXPECT_NE(diff.find("events"), std::string::npos) << diff;
  EXPECT_EQ(diff_snapshots(a, a), "");

  // The state comparison ignores the manifest's capturing thread count and
  // nothing else in it.
  Snapshot c = make_sample();
  SnapshotManifest m = read_manifest(c).value();
  m.threads = 8;
  write_manifest(m, c);
  EXPECT_NE(diff_snapshots(a, c), "");
  EXPECT_EQ(diff_snapshots(a, c, /*ignore_threads=*/true), "");
  m.label = "other";
  write_manifest(m, c);
  EXPECT_NE(diff_snapshots(a, c, /*ignore_threads=*/true).find("manifest"),
            std::string::npos);
}

// --- Cross-thread canonical capture via the scenario DSL ---------------------

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = std::filesystem::temp_directory_path() /
           ("omni_snapshot_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

std::string snapshot_scenario(const std::string& dir) {
  // Mobility, engagement, a mid-run data transfer, and a crash/restart all
  // live inside the captured interval, so the snapshot covers every
  // serialized subsystem in a nontrivial state.
  std::ostringstream os;
  os << "seed 1234\n"
        "device walker 0 0 ble wifi\n"
        "device post 25 0 ble wifi multicast\n"
        "device far 120 0 ble wifi\n"
        "advertise walker interest:snapshot\n"
        "service post 3 post-office\n"
        "walk walker at=1s to=60,0 speed=2.5\n"
        "send post walker at=4s bytes=40000\n"
        "crash far at=2s restart=5s\n"
     << "checkpoint every 2s " << dir << "\n"
     << "run 7s\n"
     << "snapshot " << dir << "/end.osnap\n";
  return os.str();
}

Status run_text(const std::string& text, unsigned threads) {
  auto parsed = scenario::Scenario::parse(text);
  EXPECT_TRUE(parsed.is_ok()) << parsed.error_message();
  std::ostringstream sink;
  return parsed.value()->run(sink, threads);
}

struct Captured {
  std::string report;
  std::map<std::string, Snapshot> files;  ///< by file name
};

/// Run `text` at `threads` into an emptied `dir`, then read back every
/// .osnap the run left there. The manifest carries the script's
/// fingerprint, so only byte-identical scripts compare: runs to compare
/// share `dir` and are read back in turn.
Captured run_captured(const std::string& text, unsigned threads,
                      const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto parsed = scenario::Scenario::parse(text);
  EXPECT_TRUE(parsed.is_ok()) << parsed.error_message();
  Captured out;
  if (!parsed.is_ok()) return out;
  std::ostringstream sink;
  Status s = parsed.value()->run(sink, threads);
  EXPECT_TRUE(s.is_ok()) << s.message();
  out.report = sink.str();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto snap = read_snapshot_file(entry.path().string());
    EXPECT_TRUE(snap.is_ok()) << snap.error_message();
    if (snap.is_ok()) {
      out.files.emplace(entry.path().filename().string(),
                        std::move(snap).value());
    }
  }
  return out;
}

/// Every capture in `a` has a same-named twin in `b` that compares equal
/// with the capturing thread count ignored.
void expect_same_captures(const Captured& a, const Captured& b) {
  EXPECT_EQ(a.files.size(), b.files.size());
  for (const auto& [name, snap] : a.files) {
    auto it = b.files.find(name);
    ASSERT_NE(it, b.files.end()) << name;
    EXPECT_EQ(diff_snapshots(snap, it->second, /*ignore_threads=*/true), "")
        << name;
  }
}

/// Overwrite `path` with `edit` applied to its bytes.
template <typename Edit>
void edit_file(const std::string& path, Edit edit) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  edit(bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotResume, CrossThreadCapturesAreByteIdentical) {
  TempDir tmp("xthread");
  const std::string dir = tmp.path("run");
  const std::string text = snapshot_scenario(dir);
  const Captured t1 = run_captured(text, 1, dir);
  ASSERT_EQ(t1.files.size(), 4u);  // checkpoints at 2/4/6 s + end.osnap
  const Captured t2 = run_captured(text, 2, dir);
  // Captures are canonical: identical at any thread count apart from the
  // manifest's record of the capturing thread count.
  ASSERT_EQ(t2.files.count("end.osnap"), 1u);
  EXPECT_NE(diff_snapshots(t1.files.at("end.osnap"), t2.files.at("end.osnap")),
            "");
  expect_same_captures(t1, t2);
  expect_same_captures(t1, run_captured(text, 8, dir));
}

// A capture from another seed or another script never compares equal: the
// manifest carries the seed and the scenario fingerprint.
TEST(SnapshotResume, RefusesForeignSnapshot) {
  TempDir tmp("foreign");
  const std::string dir = tmp.path("run");
  const std::string text = snapshot_scenario(dir);
  const Captured base = run_captured(text, 1, dir);
  ASSERT_EQ(base.files.count("end.osnap"), 1u);
  // The end-of-run diff after replacing `from` with `to` in the script.
  auto diff_after_edit = [&](const std::string& from, const std::string& to) {
    std::string edited = text;
    edited.replace(edited.find(from), from.size(), to);
    const Captured other = run_captured(edited, 1, dir);
    if (other.files.count("end.osnap") == 0) return std::string("missing");
    return diff_snapshots(base.files.at("end.osnap"),
                          other.files.at("end.osnap"),
                          /*ignore_threads=*/true);
  };
  // The seed is the manifest's first field, so the manifest is named first
  // and differs from its first byte.
  const std::string other_seed = diff_after_edit("seed 1234", "seed 4321");
  const std::string first_note = other_seed.substr(0, other_seed.find(';'));
  EXPECT_NE(first_note.find("'manifest'"), std::string::npos) << other_seed;
  EXPECT_NE(first_note.find("at +0)"), std::string::npos) << other_seed;
  const std::string other_script =
      diff_after_edit("bytes=40000", "bytes=40001");
  EXPECT_NE(other_script.find("manifest"), std::string::npos)
      << other_script;
}

TEST(SnapshotResume, TamperedCheckpointFailsLoudly) {
  TempDir tmp("tamper");
  const std::string dir = tmp.path("run");
  ASSERT_TRUE(run_text(snapshot_scenario(dir), 1).is_ok());

  // Flip one payload byte on disk: loading must fail with a checksum
  // diagnostic, not yield a silently different state.
  const std::string path = dir + "/end.osnap";
  edit_file(path, [](std::vector<char>& bytes) {
    bytes[bytes.size() / 2] ^= 0x04;
  });
  auto snap = read_snapshot_file(path);
  ASSERT_FALSE(snap.is_ok());
  EXPECT_NE(snap.error_message().find("corrupt"), std::string::npos)
      << snap.error_message();
}

TEST(SnapshotResume, TruncatedCheckpointNamesTheDamage) {
  TempDir tmp("truncated");
  const std::string path = tmp.path("a.osnap");
  const std::string text = "seed 3\ndevice a 0 0\nsnapshot " + path +
                           "\nrun 1s\n";
  ASSERT_TRUE(run_text(text, 1).is_ok());

  // Truncate the real file: the fail-soft reader's diagnostic must name the
  // damage, not vanish.
  edit_file(path, [](std::vector<char>& bytes) {
    ASSERT_GT(bytes.size(), 16u);
    bytes.resize(bytes.size() / 2);
  });
  auto snap = read_snapshot_file(path);
  ASSERT_FALSE(snap.is_ok());
  EXPECT_NE(snap.error_message().find("truncated"), std::string::npos)
      << snap.error_message();
}

TEST(SnapshotResume, CheckpointWriteFailureFailsTheRun) {
  // Point the checkpoint daemon at a directory that cannot exist: a path
  // *through* an existing regular file. The writes must fail the run, not
  // leave it "succeeding" with zero checkpoints.
  TempDir tmp("blocked");
  const std::string blocker = tmp.path("blocker");
  {
    std::ofstream f(blocker);
    f << "not a directory";
  }
  const std::string text = "seed 3\ndevice a 0 0\ncheckpoint every 1s " +
                           blocker + "/sub\nrun 2s\n";
  Status s = run_text(text, 1);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("checkpoint:"), std::string::npos)
      << s.message();
}

// The golden tourist scenario (the paper's §2.2 walkthrough) checkpoints
// every 30 s of its 120 s tour at 1 and 8 threads: every same-instant
// checkpoint pair must compare equal, and the report streams must match.
TEST(SnapshotResume, GoldenTouristCheckpointsMatchAcrossThreads) {
  TempDir tmp("tourist");
  std::ifstream in(OMNI_REPO_DIR "/examples/scenarios/tourist.scn");
  ASSERT_TRUE(in.good());
  std::ostringstream src;
  src << in.rdbuf();
  const std::string dir = tmp.path("ck");
  const std::string text = src.str() + "\ncheckpoint every 30s " + dir + "\n";

  const Captured t1 = run_captured(text, 1, dir);
  const Captured t8 = run_captured(text, 8, dir);
  EXPECT_GE(t1.files.size(), 3u);
  expect_same_captures(t1, t8);
  EXPECT_EQ(t1.report, t8.report);
}

// --- Crash capture -----------------------------------------------------------

using SnapshotCrashDeathTest = ::testing::Test;

TEST(SnapshotCrashDeathTest, AssertFailureLeavesDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The threadsafe death-test child re-executes this test body, so the dump
  // directory must be deterministic (no pid) for the parent to find it.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "omni_snapshot_crash_dump")
                              .string();
  std::filesystem::remove_all(dir);

  EXPECT_DEATH(
      {
        net::Testbed bed(7);
        bed.add_device("a", {0, 0});
        bed.arm_crash_dumps(dir);
        bed.simulator().run_for(Duration::millis(10));
        // Out-of-range node id trips OMNI_ASSERTF on the position query.
        bed.world().position(NodeId{999});
      },
      "unknown node id 999");

  // The child's crash hook must have written the reason and — since the
  // failure came from a quiescent context — the full state snapshot.
  std::ifstream reason(dir + "/crash_reason.txt");
  ASSERT_TRUE(reason.good()) << "crash_reason.txt missing";
  std::string line;
  std::getline(reason, line);
  EXPECT_NE(line.find("unknown node id 999"), std::string::npos) << line;

  auto snap = read_snapshot_file(dir + "/crash.osnap");
  ASSERT_TRUE(snap.is_ok()) << snap.error_message();
  auto manifest = read_manifest(snap.value());
  ASSERT_TRUE(manifest.is_ok());
  EXPECT_EQ(manifest.value().label, "crash");
  EXPECT_EQ(manifest.value().seed, 7u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace omni::sim
