#include "common/serial.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.h"

namespace tpnr::common {
namespace {

TEST(SerialTest, ScalarRoundTrip) {
  BinaryWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  BinaryReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(SerialTest, BytesAndStringRoundTrip) {
  BinaryWriter w;
  w.bytes(Bytes{1, 2, 3});
  w.str("cloud storage");
  w.bytes(Bytes{});
  w.str("");

  BinaryReader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "cloud storage");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
  r.expect_done();
}

TEST(SerialTest, EncodingIsLittleEndianAndDeterministic) {
  BinaryWriter w;
  w.u32(0x01020304u);
  EXPECT_EQ(w.data(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(SerialTest, TruncatedScalarThrows) {
  const Bytes short_buf{0x01, 0x02};
  BinaryReader r(short_buf);
  EXPECT_THROW(r.u32(), SerialError);
}

TEST(SerialTest, TruncatedBytesThrows) {
  BinaryWriter w;
  w.u32(100);  // claims 100 bytes follow
  BinaryReader r(w.data());
  EXPECT_THROW(r.bytes(), SerialError);
}

TEST(SerialTest, NonCanonicalBoolThrows) {
  const Bytes buf{0x02};
  BinaryReader r(buf);
  EXPECT_THROW(r.boolean(), SerialError);
}

TEST(SerialTest, TrailingBytesDetected) {
  const Bytes buf{0x00, 0x01};
  BinaryReader r(buf);
  r.u8();
  EXPECT_THROW(r.expect_done(), SerialError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(SerialTest, RemainingTracksPosition) {
  const Bytes buf{0, 0, 0, 0, 0};
  BinaryReader r(buf);
  EXPECT_EQ(r.remaining(), 5u);
  r.u32();
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(SerialTest, CountIsCheckedAgainstUnreadBytes) {
  BinaryWriter w;
  w.u32(2);
  w.u64(7);
  w.u64(8);
  BinaryReader fits(w.data());
  EXPECT_EQ(fits.count(8), 2u);
  EXPECT_EQ(fits.remaining(), 16u);

  // Two u64 elements need 16 bytes; 9 u64s cannot fit, and neither can a
  // hostile 0xffffffff count of length-prefixed (4+ byte) elements.
  BinaryWriter over;
  over.u32(9);
  over.u64(7);
  over.u64(8);
  BinaryReader too_many(over.data());
  EXPECT_THROW(too_many.count(8), SerialError);
  BinaryWriter hostile;
  hostile.u32(0xffffffffu);
  BinaryReader r(hostile.data());
  EXPECT_THROW(r.count(4), SerialError);
}

// --- Systematic per-encoder coverage: the durability layer snapshots and
// --- journals through these, so each must (a) encode deterministically,
// --- (b) round-trip exactly, (c) reject EVERY strictly truncated input.

/// One encoder under test: how to write a sample value, read it back,
/// and check the value survived.
struct EncoderCase {
  const char* name;
  std::size_t encoded_size;  ///< expected canonical size of the sample
  void (*write)(BinaryWriter&);
  void (*read_and_check)(BinaryReader&);
};

const EncoderCase kEncoderCases[] = {
    {"u8", 1, [](BinaryWriter& w) { w.u8(0x7E); },
     [](BinaryReader& r) { EXPECT_EQ(r.u8(), 0x7E); }},
    {"u16", 2, [](BinaryWriter& w) { w.u16(0xA55A); },
     [](BinaryReader& r) { EXPECT_EQ(r.u16(), 0xA55A); }},
    {"u32", 4, [](BinaryWriter& w) { w.u32(0xDEADBEEFu); },
     [](BinaryReader& r) { EXPECT_EQ(r.u32(), 0xDEADBEEFu); }},
    {"u64", 8, [](BinaryWriter& w) { w.u64(0x0123456789ABCDEFull); },
     [](BinaryReader& r) { EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull); }},
    {"i64-negative", 8, [](BinaryWriter& w) { w.i64(-987654321); },
     [](BinaryReader& r) { EXPECT_EQ(r.i64(), -987654321); }},
    {"i64-min", 8,
     [](BinaryWriter& w) { w.i64(std::numeric_limits<std::int64_t>::min()); },
     [](BinaryReader& r) {
       EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
     }},
    {"boolean", 1, [](BinaryWriter& w) { w.boolean(true); },
     [](BinaryReader& r) { EXPECT_TRUE(r.boolean()); }},
    {"bytes", 4 + 5, [](BinaryWriter& w) { w.bytes(Bytes{9, 8, 7, 6, 5}); },
     [](BinaryReader& r) { EXPECT_EQ(r.bytes(), (Bytes{9, 8, 7, 6, 5})); }},
    {"bytes-empty", 4, [](BinaryWriter& w) { w.bytes(Bytes{}); },
     [](BinaryReader& r) { EXPECT_TRUE(r.bytes().empty()); }},
    {"str", 4 + 9, [](BinaryWriter& w) { w.str("evidence!"); },
     [](BinaryReader& r) { EXPECT_EQ(r.str(), "evidence!"); }},
    {"str-empty", 4, [](BinaryWriter& w) { w.str(""); },
     [](BinaryReader& r) { EXPECT_TRUE(r.str().empty()); }},
};

TEST(SerialTest, EveryEncoderIsDeterministic) {
  for (const EncoderCase& c : kEncoderCases) {
    SCOPED_TRACE(c.name);
    BinaryWriter a;
    BinaryWriter b;
    c.write(a);
    c.write(b);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_EQ(a.data().size(), c.encoded_size);
  }
}

TEST(SerialTest, EveryEncoderRoundTripsAndConsumesExactly) {
  for (const EncoderCase& c : kEncoderCases) {
    SCOPED_TRACE(c.name);
    BinaryWriter w;
    c.write(w);
    BinaryReader r(w.data());
    c.read_and_check(r);
    EXPECT_NO_THROW(r.expect_done());
  }
}

TEST(SerialTest, EveryEncoderRejectsEveryTruncatedPrefix) {
  for (const EncoderCase& c : kEncoderCases) {
    BinaryWriter w;
    c.write(w);
    const Bytes& full = w.data();
    // Every strict prefix of a single encoding must throw on read — the
    // reader never fabricates data past the end of a torn buffer.
    for (std::size_t len = 0; len < full.size(); ++len) {
      SCOPED_TRACE(std::string(c.name) + " truncated to " +
                   std::to_string(len));
      BinaryReader r(BytesView(full).subspan(0, len));
      EXPECT_THROW(c.read_and_check(r), SerialError);
    }
  }
}

TEST(SerialTest, MixedSequenceRejectsEveryTruncatedPrefix) {
  // A composite record (the shape journal payloads actually take).
  BinaryWriter w;
  w.u64(42);
  w.str("obj-key");
  w.bytes(Bytes{1, 2, 3, 4});
  w.boolean(false);
  w.i64(-7);
  const Bytes full = w.take();

  const auto read_all = [](BinaryReader& r) {
    r.u64();
    r.str();
    r.bytes();
    r.boolean();
    r.i64();
    r.expect_done();
  };
  {
    BinaryReader r(full);
    EXPECT_NO_THROW(read_all(r));
  }
  for (std::size_t len = 0; len < full.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    BinaryReader r(BytesView(full).subspan(0, len));
    EXPECT_THROW(read_all(r), SerialError);
  }
}

}  // namespace
}  // namespace tpnr::common
