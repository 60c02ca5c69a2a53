// Snapshot/resume engine (sim/snapshot.h, net/testbed.h snapshot surface).
//
// Coverage:
//   * byte codec and snapshot container round trips;
//   * hardened loading — truncation, bad magic, unknown version, bit flips
//     in the table and in every section payload, trailing garbage — all
//     fail with a diagnostic naming the damage, never UB;
//   * canonical cross-thread capture: the same scenario checkpointed at
//     1/2/8 threads produces byte-identical state sections (the manifest
//     records the capturing thread count and is excluded);
//   * replay-anchored resume: a run checkpointed at one thread count
//     resumes (replays + byte-verifies) at another, through the scenario
//     DSL `checkpoint every` / `snapshot` directives;
//   * divergence detection: resuming a snapshot against a *different*
//     script or seed is refused;
//   * OMNI_ASSERT crash capture: an armed testbed leaves a crash dump
//     (reason + state snapshot) behind on assertion failure.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
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

TEST(SnapshotFile, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = serialize_snapshot(make_sample());
  bytes[0] = 'X';
  auto parsed = parse_snapshot(bytes);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.error_message().find("magic"), std::string::npos)
      << parsed.error_message();
}

TEST(SnapshotFile, RejectsUnknownVersion) {
  std::vector<std::uint8_t> bytes = serialize_snapshot(make_sample());
  bytes[4] = 99;  // version field follows the 4-byte magic
  auto parsed = parse_snapshot(bytes);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.error_message().find("version"), std::string::npos)
      << parsed.error_message();
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
}

// --- Cross-thread canonical capture + resume via the scenario DSL ------------

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

std::string snapshot_scenario(const std::string& snap_path,
                              const std::string& ckpt_dir) {
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
     << "checkpoint every 2s " << ckpt_dir << "\n"
     << "run 7s\n"
     << "snapshot " << snap_path << "\n";
  return os.str();
}

Status run_text(const std::string& text, unsigned threads,
                const std::string& resume = {}) {
  auto parsed = scenario::Scenario::parse(text);
  EXPECT_TRUE(parsed.is_ok()) << parsed.error_message();
  std::ostringstream sink;
  return parsed.value()->run(sink, threads, /*observe=*/false, resume);
}

TEST(SnapshotResume, CrossThreadCapturesAreByteIdentical) {
  TempDir tmp("xthread");
  std::vector<Snapshot> snaps;
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::string path =
        tmp.path("t" + std::to_string(threads) + ".osnap");
    const std::string ckpt = tmp.path("ck" + std::to_string(threads));
    Status s = run_text(snapshot_scenario(path, ckpt), threads);
    ASSERT_TRUE(s.is_ok()) << s.message();
    auto snap = read_snapshot_file(path);
    ASSERT_TRUE(snap.is_ok()) << snap.error_message();
    snaps.push_back(std::move(snap).value());
  }
  // State sections are canonical: byte-identical at any thread count. Only
  // the manifest (which records the capturing thread count) differs.
  EXPECT_EQ(diff_snapshots(snaps[0], snaps[1], /*skip_manifest=*/true), "");
  EXPECT_EQ(diff_snapshots(snaps[0], snaps[2], /*skip_manifest=*/true), "");
  // And the checkpoint files along the way match too.
  for (const char* name : {"ckpt_000002000000.osnap",
                           "ckpt_000004000000.osnap",
                           "ckpt_000006000000.osnap"}) {
    auto a = read_snapshot_file(tmp.path("ck1") + "/" + name);
    auto b = read_snapshot_file(tmp.path("ck8") + "/" + name);
    ASSERT_TRUE(a.is_ok() && b.is_ok()) << name;
    EXPECT_EQ(diff_snapshots(a.value(), b.value(), true), "") << name;
  }
}

TEST(SnapshotResume, ResumeVerifiesAcrossThreadCounts) {
  TempDir tmp("resume");
  const std::string path = tmp.path("end.osnap");
  const std::string ckpt = tmp.path("ck");
  const std::string text = snapshot_scenario(path, ckpt);
  ASSERT_TRUE(run_text(text, 1).is_ok());

  // Resume the final snapshot and a mid-run checkpoint, each at a different
  // thread count than the capture.
  EXPECT_TRUE(run_text(text, 8, path).is_ok());
  EXPECT_TRUE(run_text(text, 2, ckpt + "/ckpt_000004000000.osnap").is_ok());
}

TEST(SnapshotResume, RefusesForeignSnapshot) {
  TempDir tmp("foreign");
  const std::string path = tmp.path("a.osnap");
  const std::string text = snapshot_scenario(path, tmp.path("ck"));
  ASSERT_TRUE(run_text(text, 1).is_ok());

  // Different seed -> refused before replay.
  std::string other = text;
  other.replace(other.find("1234"), 4, "4321");
  Status s = run_text(other, 1, path);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("seed"), std::string::npos) << s.message();

  // Same seed, different script -> fingerprint mismatch.
  std::string edited = text;
  edited.replace(edited.find("bytes=40000"), 11, "bytes=40001");
  s = run_text(edited, 1, path);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("fingerprint"), std::string::npos)
      << s.message();
}

TEST(SnapshotResume, TamperedCheckpointFailsLoudly) {
  TempDir tmp("tamper");
  const std::string path = tmp.path("a.osnap");
  const std::string text = snapshot_scenario(path, tmp.path("ck"));
  ASSERT_TRUE(run_text(text, 1).is_ok());

  // Flip one payload byte on disk: resume must fail at load time with a
  // checksum diagnostic, not diverge silently.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Status s = run_text(text, 1, path);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("corrupt"), std::string::npos) << s.message();
}

TEST(SnapshotResume, ResumeFromCorruptSnapshotNamesTheDamage) {
  TempDir tmp("truncated");
  const std::string path = tmp.path("a.osnap");
  const std::string text = "seed 3\ndevice a 0 0\nsnapshot " + path +
                           "\nrun 1s\n";
  ASSERT_TRUE(run_text(text, 1).is_ok());

  // Truncate the snapshot and resume from it: the fail-soft reader's
  // diagnostic must surface through the scenario error, not vanish.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  Status s = run_text(text, 1, path);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
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
// every 30 s of its 120 s tour; a resume at a different thread count from a
// mid-tour checkpoint must byte-verify the replayed state AND produce the
// exact report stream of the straight run.
TEST(SnapshotResume, GoldenTouristScenarioResumes) {
  TempDir tmp("tourist");
  std::ifstream in(OMNI_REPO_DIR "/examples/scenarios/tourist.scn");
  ASSERT_TRUE(in.good());
  std::ostringstream src;
  src << in.rdbuf();
  const std::string text =
      src.str() + "\ncheckpoint every 30s " + tmp.path("ck") + "\n";

  auto run = [&text](unsigned threads, const std::string& resume) {
    auto parsed = scenario::Scenario::parse(text);
    EXPECT_TRUE(parsed.is_ok()) << parsed.error_message();
    std::ostringstream sink;
    Status s = parsed.value()->run(sink, threads, /*observe=*/false, resume);
    return std::make_pair(s, sink.str());
  };

  auto straight = run(1, "");
  ASSERT_TRUE(straight.first.is_ok()) << straight.first.message();
  auto resumed = run(8, tmp.path("ck") + "/ckpt_000060000000.osnap");
  ASSERT_TRUE(resumed.first.is_ok()) << resumed.first.message();
  EXPECT_NE(resumed.second.find("resume: verified byte-identical"),
            std::string::npos)
      << resumed.second;

  // Strip the resume banner lines; everything else — reports, peer counts,
  // energy averages — must match the straight run byte for byte.
  std::string filtered;
  std::istringstream lines(resumed.second);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("resume:", 0) == 0) continue;
    filtered += line;
    filtered += '\n';
  }
  EXPECT_EQ(filtered, straight.second);
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
