// common::Payload semantics: aliasing, copy-on-write detachment, counter
// accounting, and secure wiping through shared aliases.
#include "common/payload.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace tpnr::common {
namespace {

Bytes sample(std::size_t n, std::uint8_t start = 1) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(start + i);
  }
  return data;
}

class PayloadTest : public ::testing::Test {
 protected:
  void SetUp() override { Payload::reset_counters(); }
  void TearDown() override { Payload::reset_counters(); }
};

TEST_F(PayloadTest, DefaultIsEmpty) {
  const Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.data(), nullptr);
  EXPECT_TRUE(p.view().empty());
  EXPECT_TRUE(p.to_bytes().empty());
}

TEST_F(PayloadTest, WrapTakesOwnershipWithoutCounting) {
  const Payload p(sample(64));
  EXPECT_EQ(p.size(), 64u);
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.shares, 0u);
}

TEST_F(PayloadTest, CopyConstructionSharesTheBuffer) {
  const Payload a(sample(128));
  const Payload b(a);  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(a.aliases(b));
  EXPECT_EQ(a.data(), b.data());  // same allocation, not equal content only
  EXPECT_EQ(a.use_count(), 2);
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.shares, 1u);
  EXPECT_EQ(c.share_bytes, 128u);
}

TEST_F(PayloadTest, CopyAssignmentSharesTheBuffer) {
  const Payload a(sample(32));
  Payload b;
  b = a;
  EXPECT_TRUE(b.aliases(a));
  EXPECT_EQ(Payload::counters().shares, 1u);
  EXPECT_EQ(Payload::counters().copies, 0u);
}

TEST_F(PayloadTest, MoveTransfersWithoutCounting) {
  Payload a(sample(16));
  const std::uint8_t* raw = a.data();
  const Payload b(std::move(a));
  EXPECT_EQ(b.data(), raw);
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.shares, 0u);
}

TEST_F(PayloadTest, CopyOfPerformsACountedDeepCopy) {
  const Bytes source = sample(100);
  const Payload p = Payload::copy_of(source);
  EXPECT_EQ(p, source);
  EXPECT_NE(p.data(), source.data());
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.copies, 1u);
  EXPECT_EQ(c.copy_bytes, 100u);
}

TEST_F(PayloadTest, ToBytesIsACountedCopy) {
  const Payload p(sample(48));
  const Bytes out = p.to_bytes();
  EXPECT_EQ(p, out);
  EXPECT_NE(static_cast<const void*>(out.data()),
            static_cast<const void*>(p.data()));
  EXPECT_EQ(Payload::counters().copies, 1u);
  EXPECT_EQ(Payload::counters().copy_bytes, 48u);
}

TEST_F(PayloadTest, MutateUniqueOwnerIsFree) {
  Payload p(sample(8));
  const std::uint8_t* raw = p.data();
  Bytes& bytes = p.mutate();
  bytes[0] = 0xff;
  EXPECT_EQ(p.data(), raw);  // no reallocation for the sole owner
  EXPECT_EQ(p[0], 0xff);
  EXPECT_EQ(Payload::counters().copies, 0u);
}

TEST_F(PayloadTest, MutateSharedDetachesAndLeavesAliasIntact) {
  Payload a(sample(8));
  const Payload b(a);
  Payload::reset_counters();  // isolate the detach accounting

  a.mutate()[0] = 0xee;

  EXPECT_FALSE(a.aliases(b));
  EXPECT_EQ(a[0], 0xee);
  EXPECT_EQ(b[0], 1);  // the alias still sees the original content
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.copies, 1u);  // exactly one detach copy
  EXPECT_EQ(c.copy_bytes, 8u);
}

TEST_F(PayloadTest, FanOutSharesCountEachAvoidedCopy) {
  const Payload original(sample(256));
  std::vector<Payload> copies(5, original);
  for (const Payload& copy : copies) EXPECT_TRUE(copy.aliases(original));
  EXPECT_EQ(original.use_count(), 6);
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.shares, 5u);
  EXPECT_EQ(c.share_bytes, 5u * 256u);
  EXPECT_EQ(c.copies, 0u);
}

TEST_F(PayloadTest, WipeDestroysContentForAllAliases) {
  Payload a(sample(32));
  const Payload b(a);
  ASSERT_TRUE(b.aliases(a));
  const std::uint8_t* storage = b.data();
  ASSERT_NE(storage, nullptr);

  a.wipe();

  // The wiped handle dropped its reference; the alias still holds the shared
  // buffer, but its content has been zeroed and cleared — the secret is gone
  // from every alias, which is the point of wiping THROUGH the sharing.
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.view().empty());
}

TEST_F(PayloadTest, SecureWipeFreeFunctionMatchesMemberWipe) {
  Payload a(sample(16));
  const Payload alias(a);
  secure_wipe(a);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(alias.empty());
}

TEST_F(PayloadTest, EqualityComparesContentNotIdentity) {
  const Payload a(sample(10));
  const Payload b = Payload::copy_of(a.view());
  EXPECT_FALSE(a.aliases(b));
  EXPECT_TRUE(a == b);
  const Bytes raw = sample(10);
  EXPECT_TRUE(a == raw);
  EXPECT_TRUE(raw == a);
  const Payload shorter(sample(9));
  EXPECT_FALSE(a == shorter);
}

TEST_F(PayloadTest, ViewAndConversionAliasTheBuffer) {
  const Payload p(sample(24));
  const BytesView view = p;  // implicit conversion used by crypto/hash APIs
  EXPECT_EQ(view.data(), p.data());
  EXPECT_EQ(view.size(), p.size());
}

TEST_F(PayloadTest, ResetCountersZeroesEverything) {
  const Payload a(sample(8));
  const Payload b(a);       // a share
  (void)a.to_bytes();       // a copy
  (void)b;
  Payload::reset_counters();
  const PayloadCounters c = Payload::counters();
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.copy_bytes, 0u);
  EXPECT_EQ(c.shares, 0u);
  EXPECT_EQ(c.share_bytes, 0u);
}

}  // namespace
}  // namespace tpnr::common
