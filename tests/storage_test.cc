// Storage-layer unit tests: CRC32, record framing and tail
// classification, the SimFs crash/corruption model, WAL append/replay/
// truncate, snapshot encode/decode + manifest, recovery rungs and
// quarantine, and an FsEnv smoke test against the real filesystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/crc32.h"
#include "storage/record_io.h"
#include "storage/recovery.h"
#include "storage/sim_fs.h"
#include "storage/snapshot.h"
#include "storage/storage_env.h"
#include "storage/wal.h"
#include "util/fault_injector.h"

namespace svqa::storage {
namespace {

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32Test, KnownVectors) {
  // IEEE 802.3 reference values.
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(std::string_view(data).substr(0, split));
    const uint32_t full =
        Crc32(std::string_view(data).substr(split), head);
    EXPECT_EQ(full, Crc32(data)) << "split " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "some payload worth protecting";
  const uint32_t clean = Crc32(data);
  for (std::size_t bit = 0; bit < data.size() * 8; bit += 13) {
    std::string damaged = data;
    damaged[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(damaged[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_NE(Crc32(damaged), clean) << "bit " << bit;
  }
}

// Byte-at-a-time reference CRC-32 (bitwise, no tables), independent of
// the sliced implementation under test.
uint32_t ReferenceCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string PseudoRandomBytes(std::size_t n, uint64_t seed) {
  std::string out(n, '\0');
  uint64_t x = seed;
  for (char& ch : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ch = static_cast<char>(x >> 56);
  }
  return out;
}

TEST(Crc32Test, MatchesReferenceForEveryLengthAndOffset) {
  // Lengths 0-67 at start offsets 0-7 cover every head/tail split around
  // the 8-byte blocks and every alignment of the block loads.
  const std::string buffer = PseudoRandomBytes(8 + 67, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const std::string_view piece(buffer.data() + offset, len);
      EXPECT_EQ(Crc32(piece), ReferenceCrc32(piece))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatchReference) {
  const std::string a = PseudoRandomBytes(37, 2);
  const std::string b = PseudoRandomBytes(53, 3);
  for (uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(Crc32(a, seed), ReferenceCrc32(a, seed)) << seed;
    EXPECT_EQ(Crc32(b, Crc32(a, seed)),
              ReferenceCrc32(b, ReferenceCrc32(a, seed)))
        << seed;
  }
}

TEST(Crc32Test, LargeBufferMatchesReference) {
  const std::string big = PseudoRandomBytes((2u << 20) + 5, 4);
  EXPECT_EQ(Crc32(big), ReferenceCrc32(big));
}

// ---------------------------------------------------------------------------
// Record framing

TEST(RecordIoTest, RoundTripMultipleRecords) {
  std::string stream;
  AppendRecord(1, "alpha", &stream);
  AppendRecord(7, "", &stream);
  AppendRecord(42, std::string(1000, 'x'), &stream);

  const RecordScan scan = ScanRecords(stream);
  EXPECT_EQ(scan.tail, TailState::kClean);
  EXPECT_EQ(scan.valid_bytes, stream.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, 1u);
  EXPECT_EQ(scan.records[0].payload, "alpha");
  EXPECT_EQ(scan.records[1].type, 7u);
  EXPECT_EQ(scan.records[1].payload, "");
  EXPECT_EQ(scan.records[2].type, 42u);
  EXPECT_EQ(scan.records[2].payload.size(), 1000u);
}

TEST(RecordIoTest, EmptyStreamIsClean) {
  const RecordScan scan = ScanRecords("");
  EXPECT_EQ(scan.tail, TailState::kClean);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(RecordIoTest, EveryTruncationIsTornNeverCorrupt) {
  // A tear at any byte offset inside the last record must classify as
  // kTorn with the prefix intact — that is exactly the crash shape.
  std::string stream;
  AppendRecord(3, "first-record", &stream);
  const std::size_t first_end = stream.size();
  AppendRecord(4, "second-record-payload", &stream);

  // Cutting exactly at the boundary is a clean stream of one record.
  {
    const RecordScan scan =
        ScanRecords(std::string_view(stream).substr(0, first_end));
    EXPECT_EQ(scan.tail, TailState::kClean);
    ASSERT_EQ(scan.records.size(), 1u);
  }
  for (std::size_t cut = first_end + 1; cut < stream.size(); ++cut) {
    const RecordScan scan =
        ScanRecords(std::string_view(stream).substr(0, cut));
    EXPECT_EQ(scan.tail, TailState::kTorn) << "cut " << cut;
    ASSERT_EQ(scan.records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(scan.records[0].payload, "first-record");
    EXPECT_EQ(scan.valid_bytes, first_end);
  }
}

TEST(RecordIoTest, BitFlipIsNeverSilentlyAccepted) {
  std::string stream;
  AppendRecord(3, "protected payload", &stream);
  // Flip one bit at every offset: magic, header fields, payload body.
  // No flip may yield a decoded record. Most flips classify kCorrupt; a
  // flip in the length field that inflates the claimed payload is
  // indistinguishable from a tear and may read kTorn — but the record
  // still never decodes.
  for (std::size_t bit = 0; bit < stream.size() * 8; ++bit) {
    std::string damaged = stream;
    damaged[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(damaged[bit / 8]) ^ (1u << (bit % 8)));
    const RecordScan scan = ScanRecords(damaged);
    EXPECT_NE(scan.tail, TailState::kClean) << "bit " << bit;
    EXPECT_TRUE(scan.records.empty()) << "bit " << bit;
    EXPECT_EQ(scan.valid_bytes, 0u) << "bit " << bit;
  }
  // A flip outside the length field is unambiguous bit rot.
  std::string damaged = stream;
  damaged[kRecordHeaderBytes] =
      static_cast<char>(damaged[kRecordHeaderBytes] ^ 0x01);
  EXPECT_EQ(ScanRecords(damaged).tail, TailState::kCorrupt);
}

TEST(RecordIoTest, DamageAfterValidPrefixKeepsPrefix) {
  std::string stream;
  AppendRecord(1, "keep me", &stream);
  const std::size_t prefix = stream.size();
  AppendRecord(2, "damage me", &stream);
  stream[prefix + 2] = static_cast<char>(stream[prefix + 2] ^ 0x10);

  const RecordScan scan = ScanRecords(stream);
  EXPECT_EQ(scan.tail, TailState::kCorrupt);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "keep me");
  EXPECT_EQ(scan.valid_bytes, prefix);
}

TEST(RecordIoTest, InsaneLengthFieldIsCorruptNotAllocation) {
  // Forge a header claiming a payload beyond kMaxPayloadBytes; the
  // scanner must classify, not attempt the allocation.
  std::string stream;
  AppendRecord(1, "x", &stream);
  // Payload length lives at offset 8..12 (little-endian).
  stream[8] = static_cast<char>(0xFF);
  stream[9] = static_cast<char>(0xFF);
  stream[10] = static_cast<char>(0xFF);
  stream[11] = static_cast<char>(0x7F);
  const RecordScan scan = ScanRecords(stream);
  EXPECT_EQ(scan.tail, TailState::kCorrupt);
  EXPECT_TRUE(scan.records.empty());
}

TEST(RecordIoTest, TailStateNames) {
  EXPECT_STREQ(TailStateName(TailState::kClean), "clean");
  EXPECT_STREQ(TailStateName(TailState::kTorn), "torn");
  EXPECT_STREQ(TailStateName(TailState::kCorrupt), "corrupt");
}

TEST(PayloadReaderTest, PrimitivesRoundTrip) {
  std::string payload;
  PutU32(0xDEADBEEFu, &payload);
  PutU64(0x0123456789ABCDEFull, &payload);
  PutString("hello", &payload);
  PutString("", &payload);

  PayloadReader reader(payload);
  auto a = reader.GetU32();
  auto b = reader.GetU64();
  auto c = reader.GetString();
  auto d = reader.GetString();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_EQ(*a, 0xDEADBEEFu);
  EXPECT_EQ(*b, 0x0123456789ABCDEFull);
  EXPECT_EQ(*c, "hello");
  EXPECT_EQ(*d, "");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(PayloadReaderTest, OutOfRangeIsParseError) {
  std::string payload;
  PutU32(7, &payload);
  PayloadReader reader(payload);
  ASSERT_TRUE(reader.GetU32().ok());
  EXPECT_TRUE(reader.GetU64().status().IsParseError());
  EXPECT_TRUE(reader.GetString().status().IsParseError());

  // A string whose length prefix overruns the buffer is corruption.
  std::string bad;
  PutU32(1000, &bad);
  bad += "short";
  PayloadReader bad_reader(bad);
  EXPECT_TRUE(bad_reader.GetString().status().IsParseError());
}

// ---------------------------------------------------------------------------
// SimFs

TEST(SimFsTest, WriteReadRoundTrip) {
  SimFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("db/file.txt", "contents").ok());
  EXPECT_TRUE(fs.FileExists("db/file.txt"));
  auto read = fs.ReadFile("db/file.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "contents");
  EXPECT_TRUE(fs.ReadFile("db/missing.txt").status().IsNotFound());
  EXPECT_FALSE(fs.FileExists("db/missing.txt"));
}

TEST(SimFsTest, ListDirIsSortedAndScoped) {
  SimFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("db/b.txt", "1").ok());
  ASSERT_TRUE(fs.WriteFileAtomic("db/a.txt", "2").ok());
  ASSERT_TRUE(fs.WriteFileAtomic("db/sub/c.txt", "3").ok());
  ASSERT_TRUE(fs.WriteFileAtomic("other/d.txt", "4").ok());
  auto listed = fs.ListDir("db");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"a.txt", "b.txt"}));
  auto empty = fs.ListDir("nonexistent");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(SimFsTest, RenameReplacesAndRemoveIsIdempotent) {
  SimFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("db/from", "new").ok());
  ASSERT_TRUE(fs.WriteFileAtomic("db/to", "old").ok());
  ASSERT_TRUE(fs.Rename("db/from", "db/to").ok());
  EXPECT_FALSE(fs.FileExists("db/from"));
  EXPECT_EQ(*fs.ReadFile("db/to"), "new");
  EXPECT_FALSE(fs.Rename("db/missing", "db/x").ok());
  EXPECT_TRUE(fs.Remove("db/to").ok());
  EXPECT_TRUE(fs.Remove("db/to").ok());
}

TEST(SimFsTest, UnsyncedAppendsDieInTheCrash) {
  SimFs fs;
  auto file = fs.OpenAppend("db/wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("synced-part").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("volatile-part").ok());
  // No sync: the second append is page-cache only.
  fs.SimulateCrash();
  EXPECT_TRUE(fs.crashed());
  fs.Restart();
  EXPECT_FALSE(fs.crashed());
  EXPECT_EQ(*fs.ReadFile("db/wal"), "synced-part");
}

TEST(SimFsTest, WriteFileAtomicIsAllOrNothingUnderCrash) {
  const std::string payload(64, 'p');
  // A clean run to learn the total unit cost of the operation.
  uint64_t total = 0;
  {
    SimFs fs;
    ASSERT_TRUE(fs.WriteFileAtomic("db/blob", payload).ok());
    total = fs.units_written();
  }
  ASSERT_GT(total, 0u);
  for (uint64_t crash_at = 0; crash_at < total; ++crash_at) {
    SimFs fs;
    fs.PlanCrashAfter(crash_at);
    const Status s = fs.WriteFileAtomic("db/blob", payload);
    EXPECT_FALSE(s.ok()) << "crash_at " << crash_at;
    EXPECT_TRUE(fs.crashed());
    fs.SimulateCrash();
    fs.Restart();
    // All-or-nothing: after the crash the file either does not exist or
    // holds the complete payload — never a prefix.
    if (fs.FileExists("db/blob")) {
      EXPECT_EQ(*fs.ReadFile("db/blob"), payload) << "crash_at " << crash_at;
    }
  }
}

TEST(SimFsTest, CrashPlanTearsAppendAtExactByte) {
  SimFs fs;
  fs.PlanCrashAfter(5);
  auto file = fs.OpenAppend("db/wal");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  EXPECT_TRUE(fs.crashed());
  // Every mutation after the crash fails until Restart.
  EXPECT_FALSE(fs.WriteFileAtomic("db/x", "y").ok());
  EXPECT_FALSE(fs.Rename("db/wal", "db/z").ok());
  fs.Restart();
  // The torn bytes were never synced, but the tear happened at byte 5.
  auto read = fs.ReadFile("db/wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "01234");
}

TEST(SimFsTest, OpBoundariesAreMonotonic) {
  SimFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("db/a", "aaaa").ok());
  auto file = fs.OpenAppend("db/b");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("bb").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(fs.Remove("db/a").ok());
  const std::vector<uint64_t> bounds = fs.op_boundaries();
  ASSERT_FALSE(bounds.empty());
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(bounds.back(), fs.units_written());
}

TEST(SimFsTest, CorruptionPrimitives) {
  SimFs fs;
  ASSERT_TRUE(fs.WriteFileAtomic("db/f", "abcdef").ok());
  ASSERT_TRUE(fs.CorruptTruncate("db/f", 3).ok());
  EXPECT_EQ(*fs.ReadFile("db/f"), "abc");
  ASSERT_TRUE(fs.CorruptFlipBit("db/f", 0).ok());
  EXPECT_EQ((*fs.ReadFile("db/f"))[0], 'a' ^ 1);
  EXPECT_FALSE(fs.CorruptFlipBit("db/missing", 0).ok());
}

TEST(SimFsTest, FaultPolicyCorruptsReadsDeterministically) {
  const FaultInjector always(99, FaultConfig::Uniform(1.0));
  // Two identical filesystems under the same policy: the injected
  // corruption is a pure function of (seed, path, attempt), so the two
  // runs damage the returned copy identically.
  auto corrupted_read = [&always]() {
    SimFs fs;
    EXPECT_TRUE(fs.WriteFileAtomic("db/f", "pristine-content").ok());
    fs.set_fault_policy(&always);
    auto read = fs.ReadFile("db/f");
    EXPECT_TRUE(read.ok());
    EXPECT_GE(fs.injected_read_corruptions(), 1u);
    // On-disk bytes stay intact: with the policy off the content is back.
    fs.set_fault_policy(nullptr);
    EXPECT_EQ(*fs.ReadFile("db/f"), "pristine-content");
    return *read;
  };
  const std::string first = corrupted_read();
  const std::string second = corrupted_read();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, "pristine-content");
}

TEST(SimFsTest, FaultPolicyTearsAppends) {
  const FaultInjector always(7, FaultConfig::Uniform(1.0));
  SimFs fs;
  fs.set_fault_policy(&always);
  auto file = fs.OpenAppend("db/wal");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  EXPECT_GE(fs.injected_append_faults(), 1u);
  fs.set_fault_policy(nullptr);
  // The torn append left a strict prefix behind.
  auto read = fs.ReadFile("db/wal");
  ASSERT_TRUE(read.ok());
  EXPECT_LT(read->size(), 10u);
  EXPECT_EQ(*read, std::string("0123456789").substr(0, read->size()));
}

// ---------------------------------------------------------------------------
// WAL

std::string EncodedPayload(const char* tag) {
  return std::string("payload:") + tag;
}

TEST(IngestWalTest, AppendReadRoundTrip) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(1, EncodedPayload("one")).ok());
  ASSERT_TRUE(wal.Append(2, EncodedPayload("two")).ok());
  ASSERT_TRUE(wal.Append(3, EncodedPayload("three")).ok());

  auto read = wal.ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, TailState::kClean);
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].generation, 1u);
  EXPECT_EQ(read->records[0].payload, EncodedPayload("one"));
  EXPECT_EQ(read->records[2].generation, 3u);
}

TEST(IngestWalTest, MissingLogReadsEmpty) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  auto read = wal.ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->tail, TailState::kClean);
}

TEST(IngestWalTest, AppendsSurviveCrashOnceAcked) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(1, EncodedPayload("durable")).ok());
  fs.SimulateCrash();
  fs.Restart();
  IngestWal recovered(&fs, "db");
  auto read = recovered.ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, TailState::kClean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, EncodedPayload("durable"));
}

TEST(IngestWalTest, TornTailIsClassifiedAndPrefixKept) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(1, EncodedPayload("acked")).ok());
  const uint64_t acked_units = fs.units_written();
  // Tear the second append a few bytes in.
  fs.PlanCrashAfter(acked_units + 4 - fs.units_written());
  EXPECT_FALSE(wal.Append(2, EncodedPayload("torn")).ok());
  fs.SimulateCrash();
  fs.Restart();

  IngestWal recovered(&fs, "db");
  auto read = recovered.ReadAll();
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].generation, 1u);
}

TEST(IngestWalTest, BrokenLogRefusesAppendsUntilRepaired) {
  SimFs fs;
  const FaultInjector always(11, FaultConfig::Uniform(1.0));
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(1, EncodedPayload("ok")).ok());
  fs.set_fault_policy(&always);
  EXPECT_FALSE(wal.Append(2, EncodedPayload("fails")).ok());
  fs.set_fault_policy(nullptr);
  // Broken until TruncateThrough repairs the (possibly torn) tail.
  EXPECT_FALSE(wal.Append(3, EncodedPayload("refused")).ok());
  ASSERT_TRUE(wal.TruncateThrough(0).ok());
  ASSERT_TRUE(wal.Append(4, EncodedPayload("after-repair")).ok());

  auto read = wal.ReadAll();
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].generation, 1u);
  EXPECT_EQ(read->records[1].generation, 4u);
}

TEST(IngestWalTest, TruncateThroughDropsCoveredGenerations) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  for (uint64_t g = 1; g <= 5; ++g) {
    ASSERT_TRUE(wal.Append(g, EncodedPayload("x")).ok());
  }
  ASSERT_TRUE(wal.TruncateThrough(3).ok());
  auto read = wal.ReadAll();
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].generation, 4u);
  EXPECT_EQ(read->records[1].generation, 5u);
  // Appends continue seamlessly after truncation.
  ASSERT_TRUE(wal.Append(6, EncodedPayload("y")).ok());
  EXPECT_EQ(wal.ReadAll()->records.size(), 3u);
}

// ---------------------------------------------------------------------------
// Snapshot encode/decode + files + manifest

SnapshotData MakeSnapshot(uint64_t generation, std::size_t vertices) {
  SnapshotData data;
  data.generation = generation;
  data.kg_vertex_count = vertices / 2;
  data.entity_links = 3;
  data.concept_links = 4;
  for (std::size_t i = 0; i < vertices; ++i) {
    data.symbols.push_back("sym-" + std::to_string(i));
    SnapshotVertex v;
    v.label = "vertex-" + std::to_string(i);
    v.category = i % 2 == 0 ? "object" : "concept";
    v.source_image = i % 3 == 0 ? -1 : static_cast<int32_t>(i);
    data.vertices.push_back(v);
  }
  for (std::size_t i = 0; i + 1 < vertices; ++i) {
    SnapshotEdge e;
    e.src = static_cast<uint32_t>(i);
    e.dst = static_cast<uint32_t>(i + 1);
    e.label = i % 2 == 0 ? "next-to" : "wears";
    data.edges.push_back(e);
  }
  return data;
}

void ExpectSameSnapshot(const SnapshotData& a, const SnapshotData& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.kg_vertex_count, b.kg_vertex_count);
  EXPECT_EQ(a.entity_links, b.entity_links);
  EXPECT_EQ(a.concept_links, b.concept_links);
  EXPECT_EQ(a.symbols, b.symbols);
  ASSERT_EQ(a.vertices.size(), b.vertices.size());
  for (std::size_t i = 0; i < a.vertices.size(); ++i) {
    EXPECT_EQ(a.vertices[i].label, b.vertices[i].label);
    EXPECT_EQ(a.vertices[i].category, b.vertices[i].category);
    EXPECT_EQ(a.vertices[i].source_image, b.vertices[i].source_image);
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].label, b.edges[i].label);
  }
}

TEST(SnapshotCodecTest, RoundTripSpansManyChunks) {
  // > kSnapshotChunkItems items so symbols/vertices/edges each span
  // multiple chunk records.
  const SnapshotData data = MakeSnapshot(9, kSnapshotChunkItems * 2 + 17);
  const std::string encoded = EncodeSnapshot(data);
  auto decoded = SnapshotReader::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameSnapshot(data, *decoded);
}

TEST(SnapshotCodecTest, EmptySnapshotRoundTrips) {
  const SnapshotData data = MakeSnapshot(1, 0);
  auto decoded = SnapshotReader::Decode(EncodeSnapshot(data));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSameSnapshot(data, *decoded);
}

TEST(SnapshotCodecTest, EncodingIsDeterministic) {
  const SnapshotData data = MakeSnapshot(5, 40);
  EXPECT_EQ(EncodeSnapshot(data), EncodeSnapshot(data));
}

TEST(SnapshotCodecTest, AnyTruncationFailsToDecode) {
  // Without its verified footer a snapshot must never load — a complete
  // decode is the completeness proof.
  const std::string encoded = EncodeSnapshot(MakeSnapshot(2, 30));
  for (std::size_t cut = 0; cut < encoded.size();
       cut += std::max<std::size_t>(1, encoded.size() / 97)) {
    auto decoded =
        SnapshotReader::Decode(std::string_view(encoded).substr(0, cut));
    EXPECT_TRUE(decoded.status().IsParseError()) << "cut " << cut;
  }
}

TEST(SnapshotCodecTest, AnyBitFlipFailsToDecode) {
  const std::string encoded = EncodeSnapshot(MakeSnapshot(2, 10));
  for (std::size_t bit = 0; bit < encoded.size() * 8;
       bit += std::max<std::size_t>(1, encoded.size() * 8 / 211)) {
    std::string damaged = encoded;
    damaged[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(damaged[bit / 8]) ^ (1u << (bit % 8)));
    auto decoded = SnapshotReader::Decode(damaged);
    EXPECT_TRUE(decoded.status().IsParseError()) << "bit " << bit;
  }
}

TEST(SnapshotFileTest, NameRoundTrip) {
  const std::string name = SnapshotFileName(42);
  auto parsed = ParseSnapshotFileName(name);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, 42u);
  EXPECT_FALSE(ParseSnapshotFileName("MANIFEST").has_value());
  EXPECT_FALSE(ParseSnapshotFileName("wal.log").has_value());
  EXPECT_FALSE(ParseSnapshotFileName(name + ".quarantined").has_value());
}

TEST(SnapshotFileTest, WriterWritesFileAndManifest) {
  SimFs fs;
  SnapshotWriter writer(&fs, "db");
  auto name = writer.Write(MakeSnapshot(7, 20));
  ASSERT_TRUE(name.ok()) << name.status();
  EXPECT_EQ(*name, SnapshotFileName(7));
  EXPECT_TRUE(fs.FileExists("db/" + *name));

  auto manifest = ReadManifest(&fs, "db");
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->size(), 1u);
  EXPECT_EQ((*manifest)[0].generation, 7u);
  EXPECT_EQ((*manifest)[0].filename, *name);

  SnapshotReader reader(&fs);
  auto decoded = reader.Read("db/" + *name);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->generation, 7u);
}

TEST(SnapshotFileTest, RetentionPrunesOldGenerations) {
  SimFs fs;
  SnapshotWriter::Options opts;
  opts.keep = 2;
  SnapshotWriter writer(&fs, "db", opts);
  for (uint64_t g = 1; g <= 5; ++g) {
    ASSERT_TRUE(writer.Write(MakeSnapshot(g, 8)).ok());
  }
  EXPECT_FALSE(fs.FileExists("db/" + SnapshotFileName(3)));
  EXPECT_TRUE(fs.FileExists("db/" + SnapshotFileName(4)));
  EXPECT_TRUE(fs.FileExists("db/" + SnapshotFileName(5)));
  auto manifest = ReadManifest(&fs, "db");
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->size(), 2u);
  EXPECT_EQ(manifest->back().generation, 5u);
}

TEST(SnapshotFileTest, MissingManifestIsEmptyDamagedIsParseError) {
  SimFs fs;
  auto missing = ReadManifest(&fs, "db");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());

  SnapshotWriter writer(&fs, "db");
  ASSERT_TRUE(writer.Write(MakeSnapshot(1, 4)).ok());
  ASSERT_TRUE(fs.CorruptFlipBit("db/" + std::string(kManifestName), 33).ok());
  EXPECT_TRUE(ReadManifest(&fs, "db").status().IsParseError());
}

// ---------------------------------------------------------------------------
// RecoveryManager

TEST(RecoveryTest, EmptyDirectoryIsColdStart) {
  SimFs fs;
  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kColdStart);
  EXPECT_FALSE(result.state.has_value());
  EXPECT_EQ(result.report.recovered_generation, 0u);
}

TEST(RecoveryTest, SnapshotOnly) {
  SimFs fs;
  SnapshotWriter writer(&fs, "db");
  ASSERT_TRUE(writer.Write(MakeSnapshot(3, 12)).ok());

  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kSnapshotOnly);
  ASSERT_TRUE(result.state.has_value());
  EXPECT_EQ(result.state->generation, 3u);
  EXPECT_EQ(result.report.snapshot_generation, 3u);
  EXPECT_EQ(result.report.wal_records_replayed, 0u);
}

TEST(RecoveryTest, SnapshotPlusWalTail) {
  SimFs fs;
  SnapshotWriter writer(&fs, "db");
  ASSERT_TRUE(writer.Write(MakeSnapshot(2, 10)).ok());
  IngestWal wal(&fs, "db");
  // Generations 1-2 are covered by the snapshot; 3-4 replay on top.
  for (uint64_t g = 1; g <= 4; ++g) {
    ASSERT_TRUE(wal.Append(g, EncodeSnapshot(MakeSnapshot(g, 10 + g))).ok());
  }

  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kSnapshotPlusWal);
  ASSERT_TRUE(result.state.has_value());
  EXPECT_EQ(result.state->generation, 4u);
  EXPECT_EQ(result.report.snapshot_generation, 2u);
  EXPECT_EQ(result.report.wal_records_replayed, 2u);
  EXPECT_EQ(result.report.wal_records_skipped, 2u);
  EXPECT_EQ(result.state->vertices.size(), 14u);
}

TEST(RecoveryTest, WalOnlyWhenNoSnapshotExists) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(1, EncodeSnapshot(MakeSnapshot(1, 5))).ok());
  ASSERT_TRUE(wal.Append(2, EncodeSnapshot(MakeSnapshot(2, 6))).ok());

  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kWalOnly);
  ASSERT_TRUE(result.state.has_value());
  EXPECT_EQ(result.state->generation, 2u);
  EXPECT_EQ(result.report.wal_records_replayed, 2u);
}

TEST(RecoveryTest, CorruptSnapshotFallsBackToOlderGeneration) {
  SimFs fs;
  SnapshotWriter writer(&fs, "db");
  ASSERT_TRUE(writer.Write(MakeSnapshot(1, 6)).ok());
  ASSERT_TRUE(writer.Write(MakeSnapshot(2, 8)).ok());
  ASSERT_TRUE(fs.CorruptFlipBit("db/" + SnapshotFileName(2), 200).ok());

  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kSnapshotOnly);
  ASSERT_TRUE(result.state.has_value());
  EXPECT_EQ(result.state->generation, 1u);
  EXPECT_EQ(result.report.quarantined_snapshots, 1u);
  // Quarantine preserved the damaged bytes under a new name.
  EXPECT_FALSE(fs.FileExists("db/" + SnapshotFileName(2)));
  EXPECT_TRUE(fs.FileExists("db/" + SnapshotFileName(2) + ".quarantined"));
}

TEST(RecoveryTest, AllDamagedDegradesToConservativeEmpty) {
  SimFs fs;
  SnapshotWriter writer(&fs, "db");
  ASSERT_TRUE(writer.Write(MakeSnapshot(1, 6)).ok());
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(2, EncodeSnapshot(MakeSnapshot(2, 7))).ok());
  ASSERT_TRUE(fs.CorruptFlipBit("db/" + SnapshotFileName(1), 99).ok());
  ASSERT_TRUE(fs.CorruptFlipBit("db/wal.log", 99).ok());

  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kConservativeEmpty);
  EXPECT_FALSE(result.state.has_value());
  EXPECT_GE(result.report.quarantined_snapshots, 1u);
  EXPECT_FALSE(result.report.notes.empty());
}

TEST(RecoveryTest, TornWalTailIsRepairedNotFatal) {
  SimFs fs;
  IngestWal wal(&fs, "db");
  ASSERT_TRUE(wal.Append(1, EncodeSnapshot(MakeSnapshot(1, 5))).ok());
  // Simulate a crash mid-append: raw bytes of half a record at the tail.
  auto file = fs.OpenAppend("db/wal.log");
  ASSERT_TRUE(file.ok());
  std::string torn;
  AppendRecord(kRecWalPublish, "partial", &torn);
  ASSERT_TRUE((*file)->Append(
                  std::string_view(torn).substr(0, torn.size() / 2))
                  .ok());
  ASSERT_TRUE((*file)->Sync().ok());

  RecoveryManager recovery(&fs, "db");
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kWalOnly);
  ASSERT_TRUE(result.state.has_value());
  EXPECT_EQ(result.state->generation, 1u);
  EXPECT_EQ(result.report.wal_tail, TailState::kTorn);
  // repair_wal rewrote the log to its valid prefix: appendable again.
  IngestWal repaired(&fs, "db");
  ASSERT_TRUE(repaired.Append(2, EncodeSnapshot(MakeSnapshot(2, 6))).ok());
  auto read = repaired.ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->tail, TailState::kClean);
}

TEST(RecoveryTest, RungNamesAreStable) {
  EXPECT_STREQ(RecoveryRungName(RecoveryRung::kColdStart), "cold-start");
  EXPECT_STREQ(RecoveryRungName(RecoveryRung::kSnapshotOnly), "snapshot");
  EXPECT_STREQ(RecoveryRungName(RecoveryRung::kSnapshotPlusWal),
               "snapshot+wal");
  EXPECT_STREQ(RecoveryRungName(RecoveryRung::kWalOnly), "wal-only");
  EXPECT_STREQ(RecoveryRungName(RecoveryRung::kConservativeEmpty),
               "conservative-empty");
}

// ---------------------------------------------------------------------------
// FsEnv (real filesystem)

TEST(FsEnvTest, SmokeAgainstRealFilesystem) {
  StorageEnv& env = DefaultEnv();
  const std::string dir = std::string(::testing::TempDir()) + "/svqa_fsenv";
  ASSERT_TRUE(env.CreateDirs(dir).ok());
  // TempDir persists across runs: start from a clean slate.
  if (auto leftovers = env.ListDir(dir); leftovers.ok()) {
    for (const std::string& name : *leftovers) {
      ASSERT_TRUE(env.Remove(dir + "/" + name).ok());
    }
  }

  ASSERT_TRUE(env.WriteFileAtomic(dir + "/a.txt", "alpha").ok());
  ASSERT_TRUE(env.WriteFileAtomic(dir + "/b.txt", "beta").ok());
  EXPECT_TRUE(env.FileExists(dir + "/a.txt"));
  EXPECT_EQ(*env.ReadFile(dir + "/a.txt"), "alpha");
  EXPECT_TRUE(env.ReadFile(dir + "/missing").status().IsNotFound());

  auto listed = env.ListDir(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"a.txt", "b.txt"}));

  auto file = env.OpenAppend(dir + "/log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("one").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("two").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(*env.ReadFile(dir + "/log"), "onetwo");

  ASSERT_TRUE(env.Rename(dir + "/a.txt", dir + "/b.txt").ok());
  EXPECT_EQ(*env.ReadFile(dir + "/b.txt"), "alpha");
  EXPECT_FALSE(env.FileExists(dir + "/a.txt"));

  for (const char* name : {"/b.txt", "/log"}) {
    ASSERT_TRUE(env.Remove(dir + name).ok());
  }
  ASSERT_TRUE(env.Remove(dir + "/never-existed").ok());

  // The durable stack end-to-end on the real filesystem.
  SnapshotWriter writer(&env, dir);
  ASSERT_TRUE(writer.Write(MakeSnapshot(1, 10)).ok());
  IngestWal wal(&env, dir);
  ASSERT_TRUE(wal.Append(2, EncodeSnapshot(MakeSnapshot(2, 11))).ok());
  RecoveryManager recovery(&env, dir);
  const RecoveredState result = recovery.Recover();
  EXPECT_EQ(result.report.rung, RecoveryRung::kSnapshotPlusWal);
  ASSERT_TRUE(result.state.has_value());
  EXPECT_EQ(result.state->generation, 2u);
}

}  // namespace
}  // namespace svqa::storage
