// Multi-lane SHA-256: FIPS 180-4 / CAVP vectors through every engine, and
// randomized equivalence against the scalar core across lane occupancies
// and message lengths. The contract under test: acceleration NEVER changes
// a digest.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/counters.h"
#include "crypto/hash.h"
#include "crypto/sha256_mb.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;
using common::BytesView;

std::vector<Sha256MbEngine> available_engines() {
  std::vector<Sha256MbEngine> engines;
  for (auto e : {Sha256MbEngine::kScalar, Sha256MbEngine::kX4,
                 Sha256MbEngine::kX8Avx2}) {
    if (sha256_mb_available(e)) engines.push_back(e);
  }
  return engines;
}

BytesView view_of(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string hex(BytesView digest) { return common::to_hex(digest); }

// FIPS 180-4 examples plus CAVP short-message vectors. Lengths straddle the
// one-block/two-block padding boundary (55 and 56 bytes) on purpose.
struct KnownAnswer {
  std::string message;
  const char* digest_hex;
};

const KnownAnswer kVectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
    {std::string(55, 'a'),
     "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {std::string(56, 'a'),
     "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {std::string(64, 'a'),
     "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
};

TEST(Sha256MbTest, KnownAnswerVectorsOnEveryEngine) {
  std::vector<BytesView> messages;
  for (const auto& v : kVectors) messages.push_back(view_of(v.message));
  for (const auto engine : available_engines()) {
    const auto digests = sha256_many_engine(engine, nullptr, messages);
    ASSERT_EQ(digests.size(), std::size(kVectors));
    for (std::size_t i = 0; i < std::size(kVectors); ++i) {
      EXPECT_EQ(hex(digests[i]), kVectors[i].digest_hex)
          << "engine=" << static_cast<int>(engine) << " vector=" << i;
    }
  }
}

TEST(Sha256MbTest, MillionAsOnEveryEngine) {
  // FIPS 180-4's third example: 10^6 repetitions of 'a'. One copy per lane
  // exercises the multi-block loop deeply.
  const std::string big(1000000, 'a');
  const char* expected =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  for (const auto engine : available_engines()) {
    const std::vector<BytesView> messages(5, view_of(big));
    for (const auto& d : sha256_many_engine(engine, nullptr, messages)) {
      EXPECT_EQ(hex(d), expected) << "engine=" << static_cast<int>(engine);
    }
  }
}

TEST(Sha256MbTest, RandomizedEquivalenceAcrossOccupanciesAndLengths) {
  std::mt19937 rng(20260806);
  for (const auto engine : available_engines()) {
    // Occupancies from below one wave to several waves of the widest
    // engine; lengths 0..3 blocks plus a tail past the padding boundary.
    for (std::size_t count = 1; count <= 19; ++count) {
      std::vector<Bytes> messages(count);
      std::vector<BytesView> views(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t len = rng() % 200;
        messages[i].resize(len);
        for (auto& b : messages[i]) b = static_cast<std::uint8_t>(rng());
        views[i] = messages[i];
      }
      const auto batched = sha256_many_engine(engine, nullptr, views);
      ASSERT_EQ(batched.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(batched[i], sha256(views[i]))
            << "engine=" << static_cast<int>(engine) << " count=" << count
            << " i=" << i;
      }
    }
  }
}

TEST(Sha256MbTest, UniformLengthBatchMatchesScalar) {
  // All-equal lengths land in one bucket — full lanes, no scalar spill.
  std::mt19937 rng(7);
  std::vector<Bytes> messages(16, Bytes(512));
  std::vector<BytesView> views(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    for (auto& b : messages[i]) b = static_cast<std::uint8_t>(rng());
    views[i] = messages[i];
  }
  for (const auto engine : available_engines()) {
    const auto batched = sha256_many_engine(engine, nullptr, views);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(batched[i], sha256(views[i]));
    }
  }
}

TEST(Sha256MbTest, TaggedBatchPrependsDomainByte) {
  std::mt19937 rng(11);
  std::vector<Bytes> messages(9);
  std::vector<BytesView> views(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    messages[i].resize(rng() % 150);
    for (auto& b : messages[i]) b = static_cast<std::uint8_t>(rng());
    views[i] = messages[i];
  }
  for (const std::uint8_t tag : {0x00, 0x01}) {
    const auto digests = sha256_many_tagged(tag, views);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      Bytes prefixed;
      prefixed.push_back(tag);
      prefixed.insert(prefixed.end(), messages[i].begin(), messages[i].end());
      EXPECT_EQ(digests[i], sha256(prefixed)) << "tag=" << int(tag);
    }
  }
}

TEST(Sha256MbTest, MixedTagBatchHonorsPerMessageTags) {
  const Bytes chunk(777, 0xab);
  const std::vector<TaggedMessage> batch = {
      TaggedMessage{chunk, -1},
      TaggedMessage{chunk, 0x00},
      TaggedMessage{chunk, 0x01},
  };
  const auto digests = sha256_many_mixed(batch);
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], sha256(chunk));
  Bytes leaf(1 + chunk.size(), 0x00);
  std::copy(chunk.begin(), chunk.end(), leaf.begin() + 1);
  EXPECT_EQ(digests[1], sha256(leaf));
  leaf[0] = 0x01;
  EXPECT_EQ(digests[2], sha256(leaf));
}

// Dispatch always runs on the widest engine this process supports.
TEST(Sha256MbTest, BestEngineIsTheWidestAvailable) {
  if (sha256_mb_available(Sha256MbEngine::kX8Avx2)) {
    EXPECT_EQ(sha256_mb_best_engine(), Sha256MbEngine::kX8Avx2);
    EXPECT_EQ(sha256_mb_lanes(), 8u);
  } else if (sha256_mb_available(Sha256MbEngine::kX4)) {
    EXPECT_EQ(sha256_mb_best_engine(), Sha256MbEngine::kX4);
    EXPECT_EQ(sha256_mb_lanes(), 4u);
  } else {
    EXPECT_EQ(sha256_mb_best_engine(), Sha256MbEngine::kScalar);
    EXPECT_EQ(sha256_mb_lanes(), 1u);
  }
}

TEST(Sha256MbTest, CountersAttributeLaneWork) {
  if (sha256_mb_lanes() <= 1) GTEST_SKIP() << "no lane engine built";
  counters().reset();
  const std::vector<Bytes> messages(8, Bytes(64, 0x5a));
  std::vector<BytesView> views(messages.begin(), messages.end());
  (void)sha256_many(views);
  const CounterSnapshot snap = counters().snapshot();
  EXPECT_GT(snap.mb_batches, 0u);
  // 64-byte messages pad to two blocks each; all lane blocks accounted.
  EXPECT_EQ(snap.mb_lane_blocks, 8u * 2u);
}

// The one-shot sha256 adds its padded block count to scalar_blocks: a
// 1000-byte message pads to 16 blocks, 55 bytes still fit one block with
// the 0x80 byte and the length, and 56 bytes need a second.
TEST(Sha256MbTest, OneShotSha256CountsItsPaddedBlocks) {
  for (const auto& [size, blocks] :
       std::vector<std::pair<std::size_t, std::uint64_t>>{
           {1000, 16}, {0, 1}, {55, 1}, {56, 2}, {64, 2}}) {
    const std::uint64_t before = counters().scalar_blocks.load();
    (void)sha256(Bytes(size, 0x61));
    EXPECT_EQ(counters().scalar_blocks.load() - before, blocks)
        << size << "-byte message";
  }
}

}  // namespace
}  // namespace tpnr::crypto
