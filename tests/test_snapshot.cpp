// Checkpoint/restore + state-digest subsystem tests.
//
// The load-bearing property: save at T/2, restore into a fresh World,
// run to T — digest and metrics must be identical to the uninterrupted
// run, for every policy on both paper scenarios. Everything else here
// (archive format validation, corruption rejection, resumable replica
// sets) supports that guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/config/scenario.hpp"
#include "src/orch/manifest.hpp"
#include "src/orch/worker.hpp"
#include "src/report/observers.hpp"
#include "src/report/sweep.hpp"
#include "src/snapshot/checkpoint.hpp"

namespace dtn {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- archive format ---

TEST(Archive, PrimitiveRoundTrip) {
  snapshot::ArchiveWriter w;
  w.begin_section("outer");
  w.u8(200);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);
  w.str("hello archive");
  w.begin_section("inner");
  w.u64(7);
  w.end_section();
  w.end_section();

  snapshot::ArchiveReader r(w.bytes());
  r.begin_section("outer");
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello archive");
  r.begin_section("inner");
  EXPECT_EQ(r.u64(), 7u);
  r.end_section();
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Archive, TypeTagMismatchThrows) {
  snapshot::ArchiveWriter w;
  w.u32(5);
  snapshot::ArchiveReader r(w.bytes());
  EXPECT_THROW(r.u64(), PreconditionError);
}

TEST(Archive, SectionNameMismatchThrows) {
  snapshot::ArchiveWriter w;
  w.begin_section("alpha");
  w.end_section();
  snapshot::ArchiveReader r(w.bytes());
  EXPECT_THROW(r.begin_section("beta"), PreconditionError);
}

TEST(Archive, TruncatedStreamThrows) {
  snapshot::ArchiveWriter w;
  w.u64(123456789);
  std::vector<std::uint8_t> cut = w.bytes();
  cut.resize(cut.size() - 3);
  snapshot::ArchiveReader r(std::move(cut));
  EXPECT_THROW(r.u64(), PreconditionError);
}

TEST(Archive, DigestOnlyModeMatchesBufferDigest) {
  snapshot::ArchiveWriter buffered(snapshot::ArchiveWriter::Mode::kBuffer);
  snapshot::ArchiveWriter hashed(snapshot::ArchiveWriter::Mode::kDigestOnly);
  for (snapshot::ArchiveWriter* w : {&buffered, &hashed}) {
    w->begin_section("s");
    w->u64(99);
    w->f64(-1.5);
    w->str("x");
    w->end_section();
  }
  EXPECT_EQ(buffered.digest(), hashed.digest());
  EXPECT_EQ(buffered.bytes_written(), hashed.bytes_written());
}

TEST(ArchiveFile, RoundTripAndValidation) {
  const std::string path = temp_path("archive_roundtrip.bin");
  snapshot::ArchiveWriter w;
  w.begin_section("payload");
  w.u64(31337);
  w.end_section();
  snapshot::write_archive_file(path, w);

  snapshot::ArchiveReader r = snapshot::read_archive_file(path);
  r.begin_section("payload");
  EXPECT_EQ(r.u64(), 31337u);
  r.end_section();
  std::remove(path.c_str());
}

TEST(ArchiveFile, CorruptedPayloadRejected) {
  const std::string path = temp_path("archive_corrupt.bin");
  snapshot::ArchiveWriter w;
  w.begin_section("payload");
  w.u64(31337);
  w.end_section();
  snapshot::write_archive_file(path, w);

  // Flip one payload byte (past the 16-byte magic/version/length header).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  char b = 0;
  f.seekg(20);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xFF);
  f.seekp(20);
  f.write(&b, 1);
  f.close();

  EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(ArchiveFile, WrongVersionRejected) {
  const std::string path = temp_path("archive_version.bin");
  snapshot::ArchiveWriter w;
  w.u64(1);
  snapshot::write_archive_file(path, w);

  // The version lives in bytes 4..7 of the header.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const char bogus = 99;
  f.write(&bogus, 1);
  f.close();

  EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(ArchiveFile, MissingFileThrows) {
  EXPECT_THROW(snapshot::read_archive_file(temp_path("no_such_file.bin")),
               PreconditionError);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

TEST(ArchiveFile, LengthFieldPastEndOfFileRejected) {
  // The reader must refuse a header that claims more payload than the
  // file holds before it sizes any buffer from it: a claim of 2^62 bytes
  // fails with the archive's own error, not in the allocator.
  const std::string path = temp_path("archive_long_length.bin");
  snapshot::ArchiveWriter w;
  w.u64(31337);
  snapshot::write_archive_file(path, w);
  const std::vector<std::uint8_t> clean = read_file(path);
  for (const std::uint64_t claim :
       {std::uint64_t{w.bytes().size() + 1}, std::uint64_t{1} << 62}) {
    std::vector<std::uint8_t> bytes = clean;
    for (int i = 0; i < 8; ++i) {
      bytes[8 + i] = static_cast<std::uint8_t>(claim >> (8 * i));
    }
    write_file(path, bytes);
    EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError)
        << "length field " << claim;
  }
  std::remove(path.c_str());
}

TEST(ArchiveFile, TrailingBytesRejected) {
  const std::string path = temp_path("archive_trailing.bin");
  snapshot::ArchiveWriter w;
  w.u64(31337);
  snapshot::write_archive_file(path, w);
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.push_back(0);
  write_file(path, bytes);
  EXPECT_THROW(snapshot::read_archive_file(path), PreconditionError);
  std::remove(path.c_str());
}

// --- save -> restore -> run-to-end equality ---

// Scaled-down paper scenarios (structure intact, sizes reduced so each
// round-trip case runs in well under a second).
Scenario small_paper(const std::string& which, const std::string& policy) {
  Scenario sc = which == "taxi" ? Scenario::taxi_paper()
                                : Scenario::random_waypoint_paper();
  sc.n_nodes = 24;
  sc.world.duration = 4000.0;
  sc.rwp.area = Rect::sized(1500.0, 1200.0);
  sc.traffic.interval_min = 30.0;
  sc.traffic.interval_max = 40.0;
  sc.traffic.ttl = 2000.0;
  sc.traffic.initial_copies = 8;
  sc.policy = policy;
  sc.seed = 7;
  return sc;
}

void expect_same_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transfers_started, b.transfers_started);
  EXPECT_EQ(a.transfers_completed, b.transfers_completed);
  EXPECT_EQ(a.transfers_aborted, b.transfers_aborted);
  EXPECT_EQ(a.admission_rejected, b.admission_rejected);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.ttl_expired, b.ttl_expired);
  EXPECT_EQ(a.source_rejected, b.source_rejected);
  EXPECT_EQ(a.hopcounts.count(), b.hopcounts.count());
  EXPECT_EQ(a.hopcounts.mean(), b.hopcounts.mean());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.buffer_occupancy.count(), b.buffer_occupancy.count());
  EXPECT_EQ(a.buffer_occupancy.mean(), b.buffer_occupancy.mean());
}

struct RoundTripCase {
  const char* scenario;
  const char* policy;
};

class SnapshotRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SnapshotRoundTrip, RestoredRunMatchesUninterrupted) {
  const Scenario sc = small_paper(GetParam().scenario, GetParam().policy);
  const double half = sc.world.duration / 2.0;

  // Uninterrupted reference run.
  auto cold = build_world(sc);
  cold->run();
  const std::uint64_t cold_digest = cold->digest();

  // Interrupted run: save at T/2 (in memory), restore into a fresh world.
  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  const std::uint64_t half_digest = first->digest();
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  EXPECT_EQ(restored.world->now(), half);
  EXPECT_EQ(restored.world->digest(), half_digest)
      << "restore is not bit-for-bit at T/2";

  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold_digest)
      << "resumed run diverged from the uninterrupted one";
  expect_same_stats(restored.world->stats(), cold->stats());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndScenarios, SnapshotRoundTrip,
    ::testing::Values(RoundTripCase{"rwp", "fifo"},
                      RoundTripCase{"rwp", "ttl-ratio"},
                      RoundTripCase{"rwp", "copies-ratio"},
                      RoundTripCase{"rwp", "sdsrp"},
                      RoundTripCase{"taxi", "fifo"},
                      RoundTripCase{"taxi", "ttl-ratio"},
                      RoundTripCase{"taxi", "copies-ratio"},
                      RoundTripCase{"taxi", "sdsrp"}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(info.param.scenario) + "_" +
             std::string(info.param.policy == std::string("ttl-ratio")
                             ? "ttl_ratio"
                             : info.param.policy == std::string("copies-ratio")
                                   ? "copies_ratio"
                                   : info.param.policy);
    });

TEST(SnapshotFile, CheckpointFileRoundTripsThroughDisk) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string path = temp_path("world_checkpoint.ckpt");

  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  const std::uint64_t half_digest = world->digest();
  snapshot::save_checkpoint(path, sc, *world);
  world.reset();

  auto restored = snapshot::restore_checkpoint(path);
  EXPECT_EQ(restored.scenario.name, sc.name);
  EXPECT_EQ(restored.scenario.seed, sc.seed);
  EXPECT_EQ(restored.world->digest(), half_digest);
  std::remove(path.c_str());
}

TEST(ArchiveFile, WrittenBytesArePinned) {
  // Every file write_archive_file produces (checkpoints, .done markers,
  // shard results, results.bin) is a 16-byte header, the writer's payload
  // and its running FNV-1a digest. The pin is the FNV-1a of a whole
  // checkpoint file, so any change to the file encoding shows here.
  constexpr std::uint64_t kPinnedFileFnv = 0xc4e54270ea973a06ULL;
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string path = temp_path("pinned_checkpoint.ckpt");
  auto world = build_world(sc);
  world->run_until(1000.0);
  snapshot::save_checkpoint(path, sc, *world);
  const std::vector<std::uint8_t> file = read_file(path);
  std::remove(path.c_str());
  snapshot::Fnv1a h;
  h.update(file.data(), file.size());
  EXPECT_EQ(h.digest(), kPinnedFileFnv);

  snapshot::ArchiveWriter w;
  snapshot::save_world(w, sc, *world);
  const std::vector<std::uint8_t>& payload = w.bytes();
  ASSERT_EQ(file.size(), 16 + payload.size() + 8);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), file.begin() + 16));
  std::uint64_t trailer = 0;
  for (int i = 0; i < 8; ++i) {
    trailer |= static_cast<std::uint64_t>(file[16 + payload.size() + i])
               << (8 * i);
  }
  EXPECT_EQ(trailer, w.digest());
}

TEST(SnapshotFile, RouterStateSurvivesRoundTrip) {
  // PRoPHET keeps per-node predictability tables in the router itself —
  // the piece of state most easily forgotten by a checkpoint.
  Scenario sc = small_paper("rwp", "fifo");
  sc.router = "prophet";
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
}

// --- archive v3: event-driven core state ---

TEST(SnapshotV3, SaveLandsMidTransferAndRestoresBitIdentical) {
  // The v3 payload carries in-flight transfers (sorted by sender) and the
  // contact tracker's kinetic bookkeeping. Pick a save point where
  // transfers are provably in flight so the new fields are exercised, not
  // vacuously round-tripped.
  const Scenario sc = small_paper("rwp", "sdsrp");
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  ASSERT_FALSE(first->transfers_in_flight().empty())
      << "save point must land mid-transfer to exercise v3 fields";
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  const std::uint64_t half_digest = first->digest();
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  EXPECT_EQ(restored.world->digest(), half_digest);
  ASSERT_FALSE(restored.world->transfers_in_flight().empty());
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
}

TEST(SnapshotV3, KineticSkipScheduleSurvivesRestore) {
  // Digests deliberately exclude the kinetic bookkeeping (slack, budget,
  // watch set, previous positions), so digest equality alone cannot prove
  // it was restored. The skip *schedule* can: a restored run must execute
  // exactly as many full grid passes over [T/2, T] as the uninterrupted
  // run does — losing the budget or watch set on restore would force an
  // immediate re-certification pass and shift every pass after it.
  const Scenario sc = small_paper("rwp", "fifo");
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run_until(half);
  const std::size_t passes_at_half = cold->contacts().full_pass_count();
  cold->run();
  const std::size_t passes_second_half =
      cold->contacts().full_pass_count() - passes_at_half;

  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  restored.world->run();
  EXPECT_EQ(restored.world->contacts().full_pass_count(),
            passes_second_half);
  EXPECT_LT(passes_second_half, restored.world->contacts().update_count());
}

TEST(SnapshotV3, LegacyStepModeRoundTrips) {
  Scenario sc = small_paper("taxi", "sdsrp");
  sc.world.legacy_step = true;
  const double half = sc.world.duration / 2.0;

  auto cold = build_world(sc);
  cold->run();

  auto first = build_world(sc);
  first->run_until(half);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *first);
  first.reset();

  snapshot::ArchiveReader in(out.bytes());
  auto restored = snapshot::restore_world(in);
  restored.world->run();
  EXPECT_EQ(restored.world->digest(), cold->digest());
  EXPECT_EQ(restored.world->contacts().full_pass_count(),
            restored.world->contacts().update_count());
}

// --- hostile length prefixes ---

// Offset of the u64 message count in the first "buffer" section that
// holds at least one message, or npos. The section body starts with the
// i64 capacity and the u64 revision (9 encoded bytes each).
std::size_t first_nonempty_buffer_count(const std::vector<std::uint8_t>& b) {
  constexpr std::size_t kScalar = snapshot::ArchiveReader::kU64Bytes;
  const std::string name = "buffer";
  const auto le64_at = [&b](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    }
    return v;
  };
  for (auto it = b.begin();
       (it = std::search(it, b.end(), name.begin(), name.end())) != b.end();
       ++it) {
    const auto at = static_cast<std::size_t>(it - b.begin());
    if (at < 8 || le64_at(at - 8) != name.size()) continue;
    const std::size_t count_at = at + name.size() + 2 * kScalar;
    if (count_at + kScalar <= b.size() && le64_at(count_at + 1) > 0) {
      return count_at;
    }
  }
  return std::string::npos;
}

TEST(SnapshotHostile, FlippedLengthPrefixIsAPreconditionError) {
  // One flipped high byte turns a count into ~4.6e18. Unchecked, the
  // matching reserve() dies in the allocator (length_error/bad_alloc, or
  // an out-of-memory abort under ASan); bounded by the bytes left, the
  // restore fails cleanly with the archive's own error.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *world);
  const std::vector<std::uint8_t> clean = out.bytes();

  const std::size_t count_at = first_nonempty_buffer_count(clean);
  ASSERT_NE(count_at, std::string::npos);
  // The first message starts after the count; its spray-time count
  // follows 11 fixed fields: u64 id, 2 x u32 endpoints, i64 size,
  // 2 x f64 times, 4 x i64 counters, f64 received (i64 encodes like u64).
  using R = snapshot::ArchiveReader;
  const std::size_t spray_at = count_at + R::kU64Bytes + 6 * R::kU64Bytes +
                               2 * R::kU32Bytes + 3 * R::kF64Bytes;
  for (const std::size_t at : {count_at, spray_at}) {
    ASSERT_EQ(clean[at], static_cast<std::uint8_t>(snapshot::Tag::kU64));
    ASSERT_EQ(clean[at + 8], 0u) << "count must be a small number";
    std::vector<std::uint8_t> bytes = clean;
    bytes[at + 8] ^= 0x40;  // high byte of the little-endian payload
    snapshot::ArchiveReader in(std::move(bytes));
    EXPECT_THROW(snapshot::restore_world(in), PreconditionError)
        << "length prefix at byte " << at;
  }
}

TEST(SnapshotHostile, FlippedArenaHighWaterIsAPreconditionError) {
  // The v5+ arena sizing hint (high_water, free_count) closes the world
  // section. A flipped high byte asks for ~4.6e18 slots, a flipped low
  // bit for a plausible-looking one; both break the arena identity
  // high_water == live + free against the buffers just restored, and
  // the restore must refuse them instead of sizing slabs from them.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *world);
  const std::vector<std::uint8_t> clean = out.bytes();

  // Locate the tagged pair [u64 high_water][u64 free_count] by value.
  const auto tagged_u64 = [](std::uint64_t v) {
    std::vector<std::uint8_t> b{static_cast<std::uint8_t>(snapshot::Tag::kU64)};
    for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    return b;
  };
  std::vector<std::uint8_t> hint = tagged_u64(world->arena().high_water());
  const std::vector<std::uint8_t> free_bytes =
      tagged_u64(world->arena().free_count());
  hint.insert(hint.end(), free_bytes.begin(), free_bytes.end());
  hint.push_back(static_cast<std::uint8_t>(snapshot::Tag::kSectionEnd));
  const auto it =
      std::find_end(clean.begin(), clean.end(), hint.begin(), hint.end());
  ASSERT_NE(it, clean.end());
  const auto at = static_cast<std::size_t>(it - clean.begin());
  {
    snapshot::ArchiveReader in{std::vector<std::uint8_t>(clean)};
    EXPECT_NO_THROW(snapshot::restore_world(in));  // the clean bytes load
  }
  for (const auto& [byte, mask] : {std::pair<std::size_t, std::uint8_t>{8, 0x40},
                                   std::pair<std::size_t, std::uint8_t>{1, 0x01}}) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[at + byte] ^= mask;
    snapshot::ArchiveReader in(std::move(bytes));
    EXPECT_THROW(snapshot::restore_world(in), PreconditionError)
        << "payload byte " << byte << " mask " << int{mask};
  }
}

TEST(SnapshotHostile, NonCanonicalDroppedListIsAPreconditionError) {
  // save_state writes each dropped list with owners strictly ascending
  // and ids strictly ascending within a record. A repeated owner would
  // count its drops twice in d̂ and swapped ids would break the sorted
  // record invariant, so the restore must refuse both.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *world);
  const std::vector<std::uint8_t> clean = out.bytes();

  // Find a "dropped-list" section whose first record holds two or more
  // ids and which holds two or more records. Its body is the u64 owner
  // and the u64 record count; each record is the u64 node, the f64
  // record time, the u64 id count and the u64 ids (9 bytes each).
  constexpr std::size_t kScalar = snapshot::ArchiveReader::kU64Bytes;
  const auto le64_at = [&clean](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(clean[at + i]) << (8 * i);
    }
    return v;
  };
  const std::string name = "dropped-list";
  std::size_t first = std::string::npos;
  std::size_t second = std::string::npos;
  for (auto it = clean.begin();
       (it = std::search(it, clean.end(), name.begin(), name.end())) !=
       clean.end();
       ++it) {
    const auto body = static_cast<std::size_t>(it - clean.begin()) + name.size();
    const std::size_t rec = body + 2 * kScalar;
    if (le64_at(body + kScalar + 1) < 2 || le64_at(rec + 2 * kScalar + 1) < 2) {
      continue;
    }
    first = rec;
    second = rec + 3 * kScalar + le64_at(rec + 2 * kScalar + 1) * kScalar;
    break;
  }
  ASSERT_NE(first, std::string::npos) << "no dropped list with two records";
  {
    snapshot::ArchiveReader in{std::vector<std::uint8_t>(clean)};
    EXPECT_NO_THROW(snapshot::restore_world(in));  // the clean bytes load
  }
  {
    std::vector<std::uint8_t> bytes = clean;  // the second owner repeats the first
    std::copy_n(clean.begin() + first + 1, 8, bytes.begin() + second + 1);
    snapshot::ArchiveReader in(std::move(bytes));
    EXPECT_THROW(snapshot::restore_world(in), PreconditionError)
        << "repeated owner";
  }
  {
    std::vector<std::uint8_t> bytes = clean;  // the first two ids swap
    const std::size_t id0 = first + 3 * kScalar + 1;
    std::swap_ranges(bytes.begin() + id0, bytes.begin() + id0 + 8,
                     bytes.begin() + id0 + kScalar);
    snapshot::ArchiveReader in(std::move(bytes));
    EXPECT_THROW(snapshot::restore_world(in), PreconditionError)
        << "swapped ids";
  }
}

TEST(SnapshotHostile, OutOfRangeContactPairIsAPreconditionError) {
  // Contact pairs, watch pairs and transfer endpoints index per-node
  // arrays on the next step: a pair naming node ~2^31 restored fine and
  // then read far outside the radio-state vector in try_start. Each
  // edit below keeps the pair lists sorted, so only the range and
  // normalization checks can catch it.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  ASSERT_FALSE(world->contacts().current().empty());
  ASSERT_FALSE(world->transfers_in_flight().empty());
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *world);
  const std::vector<std::uint8_t> clean = out.bytes();

  using R = snapshot::ArchiveReader;
  const auto le64_at = [&clean](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(clean[at + i]) << (8 * i);
    }
    return v;
  };
  // The "contacts" section: u64 pair count, u64 pairs, f64 slack, f64
  // budget, bool, u64 position count and f64 positions, u64 watch-pair
  // count and (u32, u32, bool) watch pairs, then the section end. The
  // world's transfer list follows: u64 count, then per transfer u32
  // from, u32 to, u64 msg and two f64 times.
  const std::string name = "contacts";
  std::size_t body = std::string::npos;
  for (auto it = clean.begin();
       (it = std::search(it, clean.end(), name.begin(), name.end())) !=
       clean.end();
       ++it) {
    const auto at = static_cast<std::size_t>(it - clean.begin());
    if (at >= 9 && le64_at(at - 8) == name.size() &&
        clean[at - 9] == static_cast<std::uint8_t>(snapshot::Tag::kSectionBegin)) {
      body = at + name.size();
      break;
    }
  }
  ASSERT_NE(body, std::string::npos);
  const std::uint64_t n_pairs = le64_at(body + 1);
  ASSERT_EQ(n_pairs, world->contacts().current().size());
  const std::size_t last_pair = body + R::kU64Bytes + (n_pairs - 1) * 2 * R::kU64Bytes;
  const std::size_t positions = body + R::kU64Bytes + n_pairs * 2 * R::kU64Bytes +
                                2 * R::kF64Bytes + R::kBoolBytes;
  const std::uint64_t n_pos = le64_at(positions + 1);
  const std::size_t watch = positions + R::kU64Bytes + n_pos * 2 * R::kF64Bytes;
  const std::uint64_t n_watch = le64_at(watch + 1);
  ASSERT_GT(n_watch, 0u);
  const std::size_t last_watch =
      watch + R::kU64Bytes + (n_watch - 1) * (2 * R::kU32Bytes + R::kBoolBytes);
  const std::size_t transfers =
      watch + R::kU64Bytes + n_watch * (2 * R::kU32Bytes + R::kBoolBytes) + 1;
  ASSERT_EQ(clean[transfers], static_cast<std::uint8_t>(snapshot::Tag::kU64));
  ASSERT_EQ(le64_at(transfers + 1), world->transfers_in_flight().size());
  const std::size_t from0 = transfers + R::kU64Bytes;
  const std::size_t to0 = from0 + R::kU32Bytes;
  {
    snapshot::ArchiveReader in{std::vector<std::uint8_t>(clean)};
    EXPECT_NO_THROW(snapshot::restore_world(in));  // the clean bytes load
  }
  const std::uint64_t n_nodes = world->node_count();
  const std::size_t first_at = last_pair + 1;
  const std::size_t second_at = last_pair + R::kU64Bytes + 1;
  const std::uint64_t sender = le64_at(from0 + 1) & 0xffffffffu;  // u32
  struct Write {
    std::size_t at;  ///< payload offset
    std::uint64_t value;
    int width;
  };
  const std::pair<const char*, std::vector<Write>> edits[] = {
      {"contact pair naming node 2^31", {{second_at, std::uint64_t{1} << 31, 8}}},
      {"contact pair naming node n", {{second_at, n_nodes, 8}}},
      {"contact pair not normalized",
       {{first_at, le64_at(second_at), 8}, {second_at, le64_at(first_at), 8}}},
      {"watch pair naming node n", {{last_watch + R::kU32Bytes + 1, n_nodes, 4}}},
      {"transfer to node n", {{to0 + 1, n_nodes, 4}}},
      {"transfer to its own sender", {{to0 + 1, sender, 4}}},
  };
  for (const auto& [what, writes] : edits) {
    std::vector<std::uint8_t> bytes = clean;
    for (const Write& w : writes) {
      for (int i = 0; i < w.width; ++i) {
        bytes[w.at + i] = static_cast<std::uint8_t>(w.value >> (8 * i));
      }
    }
    snapshot::ArchiveReader in(std::move(bytes));
    EXPECT_THROW(snapshot::restore_world(in), PreconditionError) << what;
  }
}

// The message of the PreconditionError restoring `bytes` throws, or ""
// when the restore succeeds.
std::string restore_error(std::vector<std::uint8_t> bytes) {
  snapshot::ArchiveReader in(std::move(bytes));
  try {
    snapshot::restore_world(in);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(SnapshotHostile, TransferOfAbsentMessageIsAPreconditionError) {
  // An in-flight transfer names a message its sender no longer holds.
  // Unchecked, the restore succeeded and the run died a few steps later
  // with "sender copy vanished" when the transfer completed.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  ASSERT_EQ(world->transfers_in_flight().size(), 1u);
  const Transfer t = world->transfers_in_flight().front();
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *world);
  const std::vector<std::uint8_t> clean = out.bytes();

  // The transfer record opens with its tagged u32 from, u32 to, u64 msg.
  snapshot::ArchiveWriter rec;
  rec.u32(t.from);
  rec.u32(t.to);
  rec.u64(t.msg);
  const std::vector<std::uint8_t>& key = rec.bytes();
  const auto it = std::search(clean.begin(), clean.end(), key.begin(), key.end());
  ASSERT_NE(it, clean.end());
  ASSERT_EQ(std::search(it + 1, clean.end(), key.begin(), key.end()), clean.end());
  const auto msg_at = static_cast<std::size_t>(it - clean.begin()) + key.size() - 8;
  EXPECT_EQ(restore_error(clean), "");  // the clean bytes load

  std::vector<std::uint8_t> bytes = clean;
  const std::uint64_t absent = t.msg + (std::uint64_t{1} << 40);
  for (int i = 0; i < 8; ++i) {
    bytes[msg_at + i] = static_cast<std::uint8_t>(absent >> (8 * i));
  }
  const std::string error = restore_error(bytes);
  EXPECT_NE(error.find("does not hold pinned"), std::string::npos) << error;
}

// Offset of the first "imt-estimator" section body whose last_end and
// last_seen maps both hold two or more peers, or npos. The body is the
// running stats (u64 n, four f64), f64 closed exposure, u64 open count,
// f64 open-since sum, then the two maps: u64 count and (u64 peer, f64
// time) entries each.
struct EstimatorLayout {
  std::size_t open_count = std::string::npos;  ///< tagged u64
  std::size_t last_end = std::string::npos;    ///< tagged u64 count
  std::size_t last_seen = std::string::npos;   ///< tagged u64 count
};

EstimatorLayout find_estimator(const std::vector<std::uint8_t>& b) {
  constexpr std::size_t kScalar = snapshot::ArchiveReader::kU64Bytes;
  constexpr std::size_t kEntry = 2 * kScalar;
  const auto le64_at = [&b](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    }
    return v;
  };
  const std::string name = "imt-estimator";
  for (auto it = b.begin();
       (it = std::search(it, b.end(), name.begin(), name.end())) != b.end();
       ++it) {
    const std::size_t body = static_cast<std::size_t>(it - b.begin()) + name.size();
    EstimatorLayout l;
    l.open_count = body + 6 * kScalar;
    l.last_end = body + 8 * kScalar;
    const std::uint64_t n_end = le64_at(l.last_end + 1);
    l.last_seen = l.last_end + kScalar + n_end * kEntry;
    if (n_end >= 2 && le64_at(l.last_seen + 1) >= 2) return l;
  }
  return {};
}

TEST(SnapshotHostile, InconsistentEstimatorIsAPreconditionError) {
  // The estimator's open-interval count must equal its open peers: one
  // too many made the next contact start count an interval that does
  // not exist and skewed E(I). Its peer maps must be strictly ascending
  // (the form save_state writes) so a repeated peer cannot shadow
  // another, and a corrupt peer count must fail at the count.
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto world = build_world(sc);
  world->run_until(sc.world.duration / 2.0);
  snapshot::ArchiveWriter out;
  snapshot::save_world(out, sc, *world);
  const std::vector<std::uint8_t> clean = out.bytes();
  const EstimatorLayout l = find_estimator(clean);
  ASSERT_NE(l.open_count, std::string::npos) << "no estimator with two peers";
  EXPECT_EQ(restore_error(clean), "");  // the clean bytes load

  constexpr std::size_t kScalar = snapshot::ArchiveReader::kU64Bytes;
  const std::size_t end0 = l.last_end + kScalar;  // first (peer, time) entry
  const std::size_t seen0 = l.last_seen + kScalar;
  std::vector<std::uint8_t> open_plus_one = clean;
  ++open_plus_one[l.open_count + 1];
  std::vector<std::uint8_t> swapped_end = clean;  // first two entries swap
  std::swap_ranges(swapped_end.begin() + end0,
                   swapped_end.begin() + end0 + 2 * kScalar,
                   swapped_end.begin() + end0 + 2 * kScalar);
  std::vector<std::uint8_t> repeated_seen = clean;  // second peer = first
  std::copy_n(clean.begin() + seen0 + 1, 8,
              repeated_seen.begin() + seen0 + 2 * kScalar + 1);
  std::vector<std::uint8_t> flipped_count = clean;
  flipped_count[l.last_end + 8] ^= 0x40;  // high byte of the count

  const std::pair<const char*, const std::vector<std::uint8_t>*> cases[] = {
      {"open interval count", &open_plus_one},
      {"strictly ascending", &swapped_end},
      {"strictly ascending", &repeated_seen},
      {"element count exceeds", &flipped_count},
  };
  for (const auto& [needle, bytes] : cases) {
    const std::string error = restore_error(*bytes);
    EXPECT_NE(error.find(needle), std::string::npos)
        << "expected '" << needle << "', got '" << error << "'";
  }
}

// --- digest determinism regression ---

TEST(Digest, SameSeedSameDigestTrajectory) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  auto a = build_world(sc);
  auto b = build_world(sc);
  for (double t = 500.0; t <= sc.world.duration; t += 500.0) {
    a->run_until(t);
    b->run_until(t);
    ASSERT_EQ(a->digest(), b->digest()) << "diverged by t=" << t;
  }
}

TEST(Digest, DifferentSeedsDifferentDigests) {
  Scenario sc1 = small_paper("rwp", "sdsrp");
  Scenario sc2 = sc1;
  sc2.seed = sc1.seed + 1;
  auto a = build_world(sc1);
  auto b = build_world(sc2);
  a->run();
  b->run();
  EXPECT_NE(a->digest(), b->digest());
}

TEST(Digest, CheapRelativeToStepping) {
  // The digest is meant to be callable every few hundred steps; just
  // assert it is pure (no state mutation): two calls agree.
  auto world = build_world(small_paper("rwp", "fifo"));
  world->run_until(1000.0);
  EXPECT_EQ(world->digest(), world->digest());
}

// --- resumable replica sets ---

TEST(CheckpointedRuns, RunScenarioResumesFromCheckpoint) {
  const Scenario sc = small_paper("rwp", "sdsrp");
  const std::string dir = temp_path("ckpt_run_scenario");
  std::filesystem::remove_all(dir);

  const MetricPoint cold = run_scenario(sc);

  // Leave a half-way checkpoint behind, as an interrupted run would.
  {
    auto world = build_world(sc);
    DeliveredMessagesReport delivered;
    world->add_observer(&delivered);
    world->run_until(sc.world.duration / 2.0);
    std::filesystem::create_directories(dir);
    snapshot::save_checkpoint(
        dir + "/" + sc.name + "_seed" + std::to_string(sc.seed) + ".ckpt",
        sc, *world, [&delivered](snapshot::ArchiveWriter& out) {
          delivered.save_state(out);
        });
  }

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 1000.0;
  SimStats stats;
  const MetricPoint warm = run_scenario(sc, &stats, ckpt);

  EXPECT_EQ(warm.delivery_ratio, cold.delivery_ratio);
  EXPECT_EQ(warm.avg_hopcount, cold.avg_hopcount);
  EXPECT_EQ(warm.overhead_ratio, cold.overhead_ratio);
  EXPECT_EQ(warm.avg_latency, cold.avg_latency);
  EXPECT_EQ(warm.median_latency, cold.median_latency);
  EXPECT_EQ(warm.p95_latency, cold.p95_latency);
  EXPECT_GT(stats.created, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointedRuns, ReplicatedSetResumesPartialWork) {
  // One sweep point, three replicas in one shard, resumed by the
  // orchestrator: replica 0 finished (its .done marker exists), replica 1
  // stopped half-way (a .ckpt file exists), replica 2 never started.
  orch::SweepManifest m;
  m.name = "resume";
  m.replicas = 3;
  m.shard_size = 3;
  m.points.push_back({1.0, small_paper("rwp", "fifo")});
  const std::string dir = temp_path("ckpt_replicated");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const ReplicatedMetrics cold = run_replicated(m.points[0].scenario, 3);

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_s = 1000.0;
  run_scenario(m.scenario_for(0), nullptr, ckpt, m.label_for(0));
  ASSERT_TRUE(std::filesystem::exists(
      run_file_stem(dir, m.scenario_for(0), m.label_for(0)) + ".done"));
  {
    const Scenario r1 = m.scenario_for(1);
    auto world = build_world(r1);
    DeliveredMessagesReport delivered;
    world->add_observer(&delivered);
    world->run_until(r1.world.duration / 2.0);
    snapshot::save_checkpoint(
        run_file_stem(dir, r1, m.label_for(1)) + ".ckpt", r1, *world,
        [&delivered](snapshot::ArchiveWriter& out) {
          delivered.save_state(out);
        });
  }

  orch::InProcessOptions opts;
  opts.ckpt_interval_s = ckpt.interval_s;
  const std::vector<ReplicatedMetrics> warm =
      orch::run_sweep_inprocess(m, dir, opts);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0], cold);
  for (std::size_t run = 0; run < m.total_runs(); ++run) {
    const std::string stem =
        run_file_stem(dir, m.scenario_for(run), m.label_for(run));
    EXPECT_FALSE(std::filesystem::exists(stem + ".ckpt")) << stem;
    EXPECT_FALSE(std::filesystem::exists(stem + ".done")) << stem;
  }
  std::filesystem::remove_all(dir);
}

// --- satellite: ReplicatedMetrics aggregates all six fields ---

TEST(ReplicatedMetricsFix, MeanCarriesLatencyQuantiles) {
  ReplicatedMetrics agg;
  MetricPoint a{0.5, 2.0, 3.0, 100.0, 80.0, 200.0};
  MetricPoint b{0.7, 4.0, 5.0, 140.0, 120.0, 280.0};
  agg.add(a);
  agg.add(b);
  const MetricPoint m = agg.mean();
  // Aggregates are exactly mergeable via 2^20 fixed-point quantization
  // (DESIGN.md §12), so means carry a <= 2^-21 absolute rounding error.
  constexpr double kQuant = 1e-5;
  EXPECT_NEAR(m.delivery_ratio, 0.6, kQuant);
  EXPECT_NEAR(m.avg_hopcount, 3.0, kQuant);
  EXPECT_NEAR(m.overhead_ratio, 4.0, kQuant);
  EXPECT_NEAR(m.avg_latency, 120.0, kQuant);
  EXPECT_NEAR(m.median_latency, 100.0, kQuant);
  EXPECT_NEAR(m.p95_latency, 240.0, kQuant);
}

}  // namespace
}  // namespace dtn
