// Wire-format locks for src/shard/wire.h: golden bytes of one fully
// specified record (any encoder change must consciously bump the
// version), loss-free round-trips including 64-bit seeds a JSON
// double cannot hold, and the rejection contract — torn frames,
// flipped payload bits, wrong versions, and malformed payloads all
// refuse to decode.

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shard/wire.h"
#include "util/xxhash.h"

namespace ldpr {
namespace {

PartialRecord MakeRecord() {
  PartialRecord record;
  record.spec.protocol = ProtocolKind::kOue;
  record.spec.epsilon = 0.5;
  record.spec.dataset = "zipf";
  record.spec.d_override = 16;
  record.spec.n_override = 1000;
  record.spec.scale = 1.0;
  record.spec.attack = AttackKind::kMga;
  record.spec.beta = 0.05;
  record.spec.num_targets = 10;
  record.spec.eta = 0.2;
  record.spec.seed = 0xDEADBEEFCAFEBABEull;  // > 2^53: breaks JSON doubles
  record.spec.chunking.users_per_chunk = 64;
  record.spec.chunking.reports_per_chunk = 8;
  record.source = kShardSourceGenuine;
  record.chunk_begin = 2;
  record.chunk_end = 5;
  record.unit_begin = 128;
  record.unit_end = 320;
  record.counts = {0, 3, 17, 192};
  return record;
}

// The exact bytes of the record above.  This is the compatibility
// contract: if this test fails, the change is a wire-format break and
// kShardWireVersion must be bumped.
constexpr char kGoldenLine[] =
    "{\"payload\":{\"version\":2,\"spec\":{\"protocol\":\"OUE\","
    "\"epsilon\":0.5,\"dataset\":\"zipf\",\"d\":16,\"n\":1000,\"scale\":1,"
    "\"attack\":\"MGA\",\"beta\":0.05,\"targets\":10,\"eta\":0.2,"
    "\"seed\":\"deadbeefcafebabe\",\"users_per_chunk\":64,"
    "\"reports_per_chunk\":8},\"source\":\"genuine\",\"chunk_begin\":2,"
    "\"chunk_end\":5,\"unit_begin\":128,\"unit_end\":320,"
    "\"counts\":[0,3,17,192]},\"crc64\":\"538e6125d907d979\"}\n";

TEST(ShardWireTest, GoldenBytes) {
  EXPECT_EQ(EncodePartialLine(MakeRecord()), kGoldenLine);
}

TEST(ShardWireTest, RoundTripIsLossFree) {
  const PartialRecord record = MakeRecord();
  const std::string line = EncodePartialLine(record);
  const auto decoded = DecodePartialLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(ShardTaskSpecsEqual(decoded->spec, record.spec));
  EXPECT_EQ(decoded->spec.seed, record.spec.seed);
  EXPECT_EQ(decoded->source, record.source);
  EXPECT_EQ(decoded->chunk_begin, record.chunk_begin);
  EXPECT_EQ(decoded->chunk_end, record.chunk_end);
  EXPECT_EQ(decoded->unit_begin, record.unit_begin);
  EXPECT_EQ(decoded->unit_end, record.unit_end);
  EXPECT_EQ(decoded->counts, record.counts);
  // encode(decode(line)) == line, byte for byte.
  EXPECT_EQ(EncodePartialLine(*decoded), line);
}

TEST(ShardWireTest, DecodeAcceptsLineWithoutTrailingNewline) {
  std::string line = EncodePartialLine(MakeRecord());
  line.pop_back();
  EXPECT_TRUE(DecodePartialLine(line).ok());
}

TEST(ShardWireTest, EveryTruncationIsRejected) {
  const std::string line = EncodePartialLine(MakeRecord());
  // A torn write can stop after any byte; no prefix may decode.
  for (size_t len = 0; len + 1 < line.size(); len += 7)
    EXPECT_FALSE(DecodePartialLine(line.substr(0, len)).ok()) << len;
}

TEST(ShardWireTest, EveryPayloadBitFlipIsRejected) {
  const std::string line = EncodePartialLine(MakeRecord());
  const size_t payload_begin = std::string("{\"payload\":").size();
  const size_t payload_end = line.rfind(",\"crc64\":");
  ASSERT_NE(payload_end, std::string::npos);
  for (size_t i = payload_begin; i < payload_end; i += 11) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = line;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(DecodePartialLine(flipped).ok())
          << "byte " << i << " bit " << bit;
    }
  }
}

// The golden line with `from` replaced by `to` in its payload,
// re-framed under a *valid* checksum, so only the payload checks can
// reject it.
std::string EditedGoldenLine(const std::string& from, const std::string& to) {
  const std::string golden = kGoldenLine;
  const size_t begin = std::string("{\"payload\":").size();
  std::string payload =
      golden.substr(begin, golden.rfind(",\"crc64\":") - begin);
  const size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) payload.replace(at, from.size(), to);
  char crc[17];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(XxHash64(
                    payload.data(), payload.size(), kShardChecksumSeed)));
  return "{\"payload\":" + payload + ",\"crc64\":\"" + crc + "\"}\n";
}

TEST(ShardWireTest, ReframedGoldenLineDecodes) {
  EXPECT_EQ(EditedGoldenLine("", ""), kGoldenLine);
  EXPECT_TRUE(DecodePartialLine(EditedGoldenLine("[0,3,", "[1,3,")).ok());
}

TEST(ShardWireTest, WrongVersionIsRejected) {
  for (const char* version : {"{\"version\":1,", "{\"version\":3,"}) {
    const auto decoded =
        DecodePartialLine(EditedGoldenLine("{\"version\":2,", version));
    ASSERT_FALSE(decoded.ok()) << version;
    EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ShardWireTest, NonIntegerCountsAreRejected) {
  // Support counts are non-negative integers; version 1 took any
  // number here.
  for (const char* count : {"-1", "0.5", "1e300"}) {
    const auto decoded = DecodePartialLine(
        EditedGoldenLine("[0,3,17,", std::string("[0,3,") + count + ","));
    ASSERT_FALSE(decoded.ok()) << count;
    EXPECT_NE(decoded.status().message().find("counts"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ShardWireTest, GarbageIsRejected) {
  for (const char* junk :
       {"", "\n", "{}", "not json at all",
        "{\"payload\":{},\"crc64\":\"0000000000000000\"}",
        "{\"payload\":{\"version\":1},\"crc64\":\"zz\"}"}) {
    EXPECT_FALSE(DecodePartialLine(junk).ok()) << junk;
  }
}

TEST(ShardWireTest, DeeplyNestedPayloadIsRejected) {
  // A correctly checksummed frame whose payload nests far deeper than
  // any wire record: the JSON nesting bound rejects it, no crash.
  const std::string payload(200000, '[');
  char crc[17];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(XxHash64(
                    payload.data(), payload.size(), kShardChecksumSeed)));
  const auto decoded = DecodePartialLine("{\"payload\":" + payload +
                                         ",\"crc64\":\"" + crc + "\"}\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("nesting"), std::string::npos)
      << decoded.status().ToString();
}

TEST(ShardWireTest, FileRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ldpr_shard_wire").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/partial.jsonl";

  PartialRecord second = MakeRecord();
  second.source = kShardSourceMalicious;
  second.chunk_begin = 0;
  second.chunk_end = 1;
  second.unit_begin = 0;
  second.unit_end = 8;
  second.counts = {1, 0, 5, 2};
  const std::vector<PartialRecord> records = {MakeRecord(), second};

  ASSERT_TRUE(WritePartialFile(path, records).ok());
  const auto lines = ReadPartialLines(path);
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  ASSERT_EQ(lines->size(), 2u);
  for (size_t i = 0; i < records.size(); ++i) {
    const auto decoded = DecodePartialLine((*lines)[i]);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->source, records[i].source);
    EXPECT_EQ(decoded->counts, records[i].counts);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ldpr
