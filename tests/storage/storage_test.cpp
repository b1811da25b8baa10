#include <gtest/gtest.h>

#include <string>

#include "crypto/hash.h"
#include "storage/object_store.h"

namespace tpnr::storage {
namespace {

using common::to_bytes;

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStore store_{7};
};

TEST_F(ObjectStoreTest, PutAssignsVersionsAndStoresMd5) {
  const auto data = to_bytes("v1");
  const auto md5 = crypto::md5(data);
  EXPECT_EQ(store_.put("k", data, md5, 100), 1u);
  EXPECT_EQ(store_.put("k", to_bytes("v2"), md5, 200), 2u);

  const auto record = store_.get("k");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->version, 2u);
  EXPECT_EQ(record->data, to_bytes("v2"));
  EXPECT_EQ(record->stored_md5, md5);  // stored, never recomputed
  EXPECT_EQ(record->stored_at, 200);
}

TEST_F(ObjectStoreTest, GetMissingReturnsNullopt) {
  EXPECT_FALSE(store_.get("missing").has_value());
}

TEST_F(ObjectStoreTest, TamperChangesBytesButNotBookkeeping) {
  const auto data = to_bytes("honest bytes");
  const auto md5 = crypto::md5(data);
  store_.put("k", data, md5, 1);
  ASSERT_TRUE(store_.tamper("k", to_bytes("evil bytes")));

  const auto record = store_.get("k");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->data, to_bytes("evil bytes"));
  EXPECT_EQ(record->stored_md5, md5);   // the Azure echo serves the OLD md5
  EXPECT_EQ(record->version, 1u);       // no version bump: silent
  EXPECT_NE(crypto::md5(record->data), record->stored_md5);
}

TEST_F(ObjectStoreTest, TamperMissingReturnsFalse) {
  EXPECT_FALSE(store_.tamper("missing", to_bytes("x")));
}

TEST_F(ObjectStoreTest, BitFlipFaultInjection) {
  const auto data = to_bytes("sensitive payload bytes");
  store_.put("k", data, crypto::md5(data), 1);
  store_.set_fault_policy({FaultKind::kBitFlip, 1.0});
  const auto record = store_.get("k");
  ASSERT_TRUE(record.has_value());
  EXPECT_NE(record->data, data);
  EXPECT_EQ(record->data.size(), data.size());
  EXPECT_EQ(store_.faults_injected(), 1u);
}

TEST_F(ObjectStoreTest, TruncateFaultInjection) {
  const auto data = common::Bytes(100, 0xaa);
  store_.put("k", data, crypto::md5(data), 1);
  store_.set_fault_policy({FaultKind::kTruncate, 1.0});
  EXPECT_EQ(store_.get("k")->data.size(), 50u);
}

TEST_F(ObjectStoreTest, LossFaultInjection) {
  store_.put("k", to_bytes("x"), {}, 1);
  store_.set_fault_policy({FaultKind::kLoss, 1.0});
  EXPECT_FALSE(store_.get("k").has_value());
}

TEST_F(ObjectStoreTest, StaleVersionFaultServesOldData) {
  store_.put("k", to_bytes("version-1"), {}, 1);
  store_.put("k", to_bytes("version-2"), {}, 2);
  store_.set_fault_policy({FaultKind::kStaleVersion, 1.0});
  EXPECT_EQ(store_.get("k")->data, to_bytes("version-1"));
}

TEST_F(ObjectStoreTest, KeepsOnlyThePreviousVersion) {
  const common::Payload v1(to_bytes("version-1"));
  ASSERT_EQ(store_.put("k", v1, {}, 1), 1u);
  for (std::uint64_t v = 2; v <= 4; ++v) {
    const auto bytes = to_bytes("version-" + std::to_string(v));
    ASSERT_EQ(store_.mutate("k", bytes, {}, static_cast<SimTime>(v), {}), v);
  }
  // v1 is two versions back: the store holds no share of it any more.
  EXPECT_EQ(v1.use_count(), 1);

  // A stale read and a rollback both serve v3, the one version kept, while
  // the record keeps claiming version 4.
  store_.set_fault_policy({FaultKind::kStaleVersion, 1.0});
  auto record = store_.get("k");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->data, to_bytes("version-3"));
  EXPECT_EQ(record->version, 4u);
  store_.set_fault_policy({FaultKind::kNone, 0.0});
  for (int rollback = 0; rollback < 2; ++rollback) {
    ASSERT_TRUE(store_.rollback_attack("k"));
    record = store_.get("k");
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->data, to_bytes("version-3"));
    EXPECT_EQ(record->version, 4u);
  }

  // A removed key starts over: its first new version has nothing before it.
  ASSERT_TRUE(store_.remove("k"));
  ASSERT_EQ(store_.put("k", to_bytes("fresh"), {}, 5), 1u);
  EXPECT_FALSE(store_.rollback_attack("k"));
}

TEST_F(ObjectStoreTest, ZeroProbabilityNeverFaults) {
  store_.put("k", to_bytes("x"), {}, 1);
  store_.set_fault_policy({FaultKind::kBitFlip, 0.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(store_.get("k")->data, to_bytes("x"));
  }
  EXPECT_EQ(store_.faults_injected(), 0u);
}

TEST_F(ObjectStoreTest, FaultProbabilityIsApproximatelyHonoured) {
  store_.put("k", common::Bytes(64, 1), {}, 1);
  store_.set_fault_policy({FaultKind::kBitFlip, 0.25});
  int faulty = 0;
  for (int i = 0; i < 1000; ++i) {
    if (store_.get("k")->data != common::Bytes(64, 1)) ++faulty;
  }
  EXPECT_NEAR(faulty / 1000.0, 0.25, 0.06);
}

TEST_F(ObjectStoreTest, RemoveClearsEverything) {
  store_.put("k", to_bytes("x"), {}, 1);
  EXPECT_TRUE(store_.remove("k"));
  EXPECT_FALSE(store_.exists("k"));
  EXPECT_FALSE(store_.get("k").has_value());
  EXPECT_FALSE(store_.remove("k"));
}

TEST_F(ObjectStoreTest, ListReflectsContents) {
  store_.put("b", {}, {}, 1);
  store_.put("a", {}, {}, 1);
  EXPECT_EQ(store_.list(), (std::vector<std::string>{"a", "b"}));
}

TEST(FaultKindTest, Names) {
  EXPECT_EQ(fault_kind_name(FaultKind::kNone), "none");
  EXPECT_EQ(fault_kind_name(FaultKind::kBitFlip), "bit-flip");
  EXPECT_EQ(fault_kind_name(FaultKind::kStaleVersion), "stale-version");
  EXPECT_EQ(fault_kind_name(FaultKind::kAdminTamper), "admin-tamper");
}

TEST_F(ObjectStoreTest, FaultLogRecordsPolicyInjections) {
  store_.put("k", to_bytes("some payload"), {}, 1);
  store_.set_fault_policy({FaultKind::kBitFlip, 1.0});
  EXPECT_TRUE(store_.get("k").has_value());
  EXPECT_TRUE(store_.get("k").has_value());

  ASSERT_EQ(store_.fault_log().size(), 2u);
  for (const FaultEvent& event : store_.fault_log()) {
    EXPECT_EQ(event.key, "k");
    EXPECT_EQ(event.kind, FaultKind::kBitFlip);
    EXPECT_EQ(event.version, 1u);
    EXPECT_EQ(event.at, 0);  // no clock bound
  }
  EXPECT_EQ(store_.faults_injected(), store_.fault_log().size());
}

TEST_F(ObjectStoreTest, FaultLogRecordsAdminTamper) {
  store_.put("k", to_bytes("v1"), {}, 1);
  store_.put("k", to_bytes("v2"), {}, 2);
  ASSERT_TRUE(store_.tamper("k", to_bytes("evil")));

  ASSERT_EQ(store_.fault_log().size(), 1u);
  EXPECT_EQ(store_.fault_log()[0].kind, FaultKind::kAdminTamper);
  EXPECT_EQ(store_.fault_log()[0].version, 2u);
  EXPECT_EQ(store_.faults_injected(), 1u);
}

TEST_F(ObjectStoreTest, FaultLogCarriesBoundClockTime) {
  common::SimClock clock;
  store_.bind_clock(&clock);
  store_.put("k", to_bytes("x"), {}, 1);
  clock.advance_to(12345);
  ASSERT_TRUE(store_.tamper("k", to_bytes("y")));
  ASSERT_EQ(store_.fault_log().size(), 1u);
  EXPECT_EQ(store_.fault_log()[0].at, 12345);
}

TEST_F(ObjectStoreTest, FaultLogForFiltersByKey) {
  store_.put("a", to_bytes("x"), {}, 1);
  store_.put("b", to_bytes("y"), {}, 1);
  store_.tamper("a", to_bytes("x2"));
  store_.tamper("b", to_bytes("y2"));
  store_.tamper("a", to_bytes("x3"));

  const auto for_a = store_.fault_log_for("a");
  ASSERT_EQ(for_a.size(), 2u);
  EXPECT_EQ(for_a[0].key, "a");
  EXPECT_EQ(for_a[1].key, "a");
  EXPECT_EQ(store_.fault_log_for("b").size(), 1u);
  EXPECT_TRUE(store_.fault_log_for("missing").empty());
}

}  // namespace
}  // namespace tpnr::storage
