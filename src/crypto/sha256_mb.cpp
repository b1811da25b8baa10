#include "crypto/sha256_mb.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>

#include "common/error.h"
#include "crypto/counters.h"
#include "crypto/sha256.h"

// The portable lane engine: 4 lanes wide, baseline ISA (the compiler
// legalizes the 16-byte vectors to SSE2 on x86-64, NEON on aarch64, ...).
#if defined(__GNUC__) || defined(__clang__)
#define TPNR_HAVE_MB_X4 1
#define TPNR_MB_LANES 4
#define TPNR_MB_FN sha256_mb_compress_x4
#include "crypto/sha256_mb_lanes.inl"
#else
#define TPNR_HAVE_MB_X4 0
#endif

namespace tpnr::crypto {

#if TPNR_HAVE_SHA256_MB_AVX2
namespace detail {
// Defined in sha256_mb_avx2.cpp, compiled with -mavx2.
void sha256_mb_compress_x8_avx2(std::uint32_t* state,
                                const std::uint8_t* const* blocks,
                                std::size_t nblocks);
}  // namespace detail
#endif

namespace {

constexpr std::size_t kBlock = 64;

constexpr std::array<std::uint32_t, 8> kIv = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

std::size_t total_len(const TaggedMessage& m) {
  return m.msg.size() + (m.tag >= 0 ? 1 : 0);
}

/// Padded length in blocks for a message of `total` bytes (tag included).
std::size_t padded_blocks(std::size_t total) {
  return (total + 8) / kBlock + 1;
}

/// Writes tag? || msg || 0x80 || zeros || bitlen_be into `out`, which must
/// hold exactly padded_blocks(total_len(m)) * 64 bytes.
void materialize(std::uint8_t* out, std::size_t padded_len,
                 const TaggedMessage& m) {
  std::size_t pos = 0;
  if (m.tag >= 0) out[pos++] = static_cast<std::uint8_t>(m.tag);
  if (!m.msg.empty()) std::memcpy(out + pos, m.msg.data(), m.msg.size());
  pos += m.msg.size();
  out[pos++] = 0x80;
  std::memset(out + pos, 0, padded_len - pos - 8);
  const std::uint64_t bit_len = static_cast<std::uint64_t>(total_len(m)) * 8;
  for (int i = 0; i < 8; ++i) {
    out[padded_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
}

Bytes scalar_digest(const TaggedMessage& m) {
  Sha256 h;
  if (m.tag >= 0) {
    const std::uint8_t tag = static_cast<std::uint8_t>(m.tag);
    h.update(BytesView(&tag, 1));
  }
  h.update(m.msg);
  counters().scalar_blocks.fetch_add(padded_blocks(total_len(m)),
                                     std::memory_order_relaxed);
  return h.finish();
}

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t* const*,
                            std::size_t);

struct EngineInfo {
  CompressFn fn = nullptr;
  unsigned lanes = 1;
};

EngineInfo engine_info(Sha256MbEngine engine) {
  switch (engine) {
    case Sha256MbEngine::kScalar:
      return {nullptr, 1};
#if TPNR_HAVE_MB_X4
    case Sha256MbEngine::kX4:
      return {&detail::sha256_mb_compress_x4, 4};
#endif
#if TPNR_HAVE_SHA256_MB_AVX2
    case Sha256MbEngine::kX8Avx2:
      if (__builtin_cpu_supports("avx2")) {
        return {&detail::sha256_mb_compress_x8_avx2, 8};
      }
      break;
#endif
    default:
      break;
  }
  return {nullptr, 0};  // unavailable
}

/// Hashes `group` (indices into msgs, all with the same padded block count)
/// through the lane engine, `lanes` messages per compression call. Unfilled
/// lanes repeat the first message of the wave; their output is discarded.
void hash_group(const EngineInfo& eng, std::span<const TaggedMessage> msgs,
                const std::vector<std::size_t>& group, std::size_t nblocks,
                std::vector<Bytes>& out) {
  const unsigned lanes = eng.lanes;
  const std::size_t padded_len = nblocks * kBlock;
  std::vector<std::uint8_t> scratch(padded_len * lanes);
  std::vector<const std::uint8_t*> ptrs(lanes);
  std::vector<std::uint32_t> state(8 * lanes);

  for (std::size_t wave = 0; wave < group.size(); wave += lanes) {
    const std::size_t occupied =
        std::min<std::size_t>(lanes, group.size() - wave);
    for (unsigned l = 0; l < lanes; ++l) {
      std::uint8_t* lane_buf = scratch.data() + l * padded_len;
      if (l < occupied) {
        materialize(lane_buf, padded_len, msgs[group[wave + l]]);
      } else {
        // Idle lanes replay lane 0's buffer; their output is discarded.
        std::memcpy(lane_buf, scratch.data(), padded_len);
      }
      ptrs[l] = lane_buf;
      for (int wd = 0; wd < 8; ++wd) {
        state[static_cast<std::size_t>(wd) * lanes + l] =
            kIv[static_cast<std::size_t>(wd)];
      }
    }
    eng.fn(state.data(), ptrs.data(), nblocks);
    counters().mb_batches.fetch_add(1, std::memory_order_relaxed);
    counters().mb_lane_blocks.fetch_add(occupied * nblocks,
                                        std::memory_order_relaxed);
    // jobs-per-dispatch: mb_dispatch_jobs / mb_batches is the lane fill
    // rate the fleet sweep gates on (idle replay lanes don't count).
    counters().mb_dispatch_jobs.fetch_add(occupied, std::memory_order_relaxed);
    for (std::size_t l = 0; l < occupied; ++l) {
      Bytes digest(32);
      for (int wd = 0; wd < 8; ++wd) {
        const std::uint32_t v =
            state[static_cast<std::size_t>(wd) * lanes + l];
        for (int b = 0; b < 4; ++b) {
          digest[static_cast<std::size_t>(4 * wd + b)] =
              static_cast<std::uint8_t>(v >> (8 * (3 - b)));
        }
      }
      out[group[wave + l]] = std::move(digest);
    }
  }
}

std::vector<Bytes> many_core(Sha256MbEngine engine,
                             std::span<const TaggedMessage> msgs) {
  std::vector<Bytes> out(msgs.size());
  const EngineInfo eng = engine_info(engine);
  if (eng.lanes == 0) {
    throw common::CryptoError("sha256_many: engine not available");
  }
  if (eng.fn == nullptr || msgs.size() < 2) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      out[i] = scalar_digest(msgs[i]);
    }
    return out;
  }

  // Bucket by padded block count so every lane in a compression call runs
  // the same number of blocks (uniform control flow, no wasted tail work).
  std::map<std::size_t, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    buckets[padded_blocks(total_len(msgs[i]))].push_back(i);
  }
  for (const auto& [nblocks, group] : buckets) {
    if (group.size() == 1) {
      out[group[0]] = scalar_digest(msgs[group[0]]);
    } else {
      hash_group(eng, msgs, group, nblocks, out);
    }
  }
  return out;
}

std::vector<TaggedMessage> wrap(const std::uint8_t* tag,
                                std::span<const BytesView> messages) {
  std::vector<TaggedMessage> msgs(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    msgs[i] = {messages[i], tag != nullptr ? static_cast<int>(*tag) : -1};
  }
  return msgs;
}

}  // namespace

bool sha256_mb_available(Sha256MbEngine engine) noexcept {
  if (engine == Sha256MbEngine::kScalar) return true;
  return engine_info(engine).lanes != 0;
}

Sha256MbEngine sha256_mb_best_engine() noexcept {
#if TPNR_HAVE_SHA256_MB_AVX2
  if (__builtin_cpu_supports("avx2")) return Sha256MbEngine::kX8Avx2;
#endif
#if TPNR_HAVE_MB_X4
  return Sha256MbEngine::kX4;
#else
  return Sha256MbEngine::kScalar;
#endif
}

unsigned sha256_mb_lanes() noexcept {
  return engine_info(sha256_mb_best_engine()).lanes;
}

std::vector<Bytes> sha256_many(std::span<const BytesView> messages) {
  return many_core(sha256_mb_best_engine(), wrap(nullptr, messages));
}

std::vector<Bytes> sha256_many_tagged(std::uint8_t tag,
                                      std::span<const BytesView> messages) {
  return many_core(sha256_mb_best_engine(), wrap(&tag, messages));
}

std::vector<Bytes> sha256_many_mixed(std::span<const TaggedMessage> messages) {
  return many_core(sha256_mb_best_engine(), messages);
}

std::vector<Bytes> sha256_many_engine(Sha256MbEngine engine,
                                      const std::uint8_t* tag,
                                      std::span<const BytesView> messages) {
  return many_core(engine, wrap(tag, messages));
}

}  // namespace tpnr::crypto
