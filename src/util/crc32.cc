#include "util/crc32.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPAQ_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace opaq {
namespace {

/// The reflected CRC-32 tables for slicing-by-8, built once (thread-safe
/// static init). `entries[0]` is the classic bytewise table; `entries[k][b]`
/// is the CRC of byte b followed by k zero bytes, so eight table lookups
/// advance the CRC over eight input bytes at once.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

// Little-endian load from bytes, whatever the host's byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Advances the running (inverted) CRC state over `len` bytes with the
/// slicing-by-8 tables.
uint32_t SlicingBy8(uint32_t crc, const uint8_t* bytes, size_t len) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  for (; len >= 8; len -= 8, bytes += 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc;
}

#ifdef OPAQ_CRC32_CLMUL

/// Smallest buffer the folding kernel takes: its four lanes load 64 bytes
/// up front.
constexpr size_t kFoldMinBytes = 64;

// Folding constants for the reflected polynomial, each a power of x mod P
// (bit-reflected, shifted left by one): a lane of 128 bits moved forward
// by 512 bits folds with {x^(512+32), x^(512-32)}, by 128 bits with
// {x^(128+32), x^(128-32)}; x^64 folds 64 bits into 32, and the Barrett
// pair is P itself and floor(x^64 / P).
constexpr uint64_t kFold512Lo = 0x154442bd4u, kFold512Hi = 0x1c6e41596u;
constexpr uint64_t kFold128Lo = 0x1751997d0u, kFold128Hi = 0x0ccaa009eu;
constexpr uint64_t kFold64 = 0x163cd6124u;
constexpr uint64_t kPoly = 0x1db710641u, kBarrettMu = 0x1f7011641u;

/// `lane` moved forward by the distance `k` encodes, xor `next`: the low
/// and high halves times their constants.
__attribute__((target("pclmul"))) inline __m128i FoldLane(__m128i lane,
                                                          __m128i k,
                                                          __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

/// Advances the running (inverted) CRC state over `len` bytes, a multiple
/// of 16 and at least `kFoldMinBytes`, with carry-less multiplies.
__attribute__((target("pclmul"))) uint32_t FoldClmul(uint32_t crc,
                                                     const uint8_t* bytes,
                                                     size_t len) {
  const auto load = [](const uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  __m128i a = _mm_xor_si128(load(bytes),
                            _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i b = load(bytes + 16);
  __m128i c = load(bytes + 32);
  __m128i d = load(bytes + 48);
  bytes += 64;
  len -= 64;

  // Four independent lanes, each folded 512 bits ahead per step.
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                      static_cast<long long>(kFold512Lo));
  for (; len >= 64; len -= 64, bytes += 64) {
    a = FoldLane(a, k512, load(bytes));
    b = FoldLane(b, k512, load(bytes + 16));
    c = FoldLane(c, k512, load(bytes + 32));
    d = FoldLane(d, k512, load(bytes + 48));
  }

  // The four lanes into one, then the remaining 16-byte blocks into it.
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                      static_cast<long long>(kFold128Lo));
  a = FoldLane(a, k128, b);
  a = FoldLane(a, k128, c);
  a = FoldLane(a, k128, d);
  for (; len >= 16; len -= 16, bytes += 16) {
    a = FoldLane(a, k128, load(bytes));
  }

  // 128 bits to 64: the low half times x^(128-32) into the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  a = _mm_xor_si128(_mm_srli_si128(a, 8), _mm_clmulepi64_si128(a, k128, 0x10));
  // 64 bits to 32 (plus carry): the low word times x^64 into the rest.
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  a = _mm_xor_si128(_mm_srli_si128(a, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(a, low32), k64, 0x00));
  // Barrett reduction: q = floor(low32(a) * mu / x^32), then a ^= q * P.
  const __m128i barrett = _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                                         static_cast<long long>(kPoly));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(a, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  a = _mm_xor_si128(a, q);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(a, 4)));
}

/// Folds whole 16-byte blocks with PCLMULQDQ, then the tail with the
/// tables.
uint32_t ClmulThenTables(uint32_t crc, const uint8_t* bytes, size_t len) {
  if (len >= kFoldMinBytes) {
    const size_t folded = len & ~size_t{15};
    crc = FoldClmul(crc, bytes, folded);
    bytes += folded;
    len -= folded;
  }
  return SlicingBy8(crc, bytes, len);
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
}

#endif  // OPAQ_CRC32_CLMUL

using Kernel = uint32_t (*)(uint32_t crc, const uint8_t* bytes, size_t len);

/// The kernel for this process, picked on first use.
Kernel PickKernel() {
#ifdef OPAQ_CRC32_CLMUL
  if (CpuHasClmul()) return &ClmulThenTables;
#endif
  return &SlicingBy8;
}

Kernel ActiveKernel() {
  static const Kernel kernel = PickKernel();
  return kernel;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  return ActiveKernel()(0xFFFFFFFFu, static_cast<const uint8_t*>(data), len) ^
         0xFFFFFFFFu;
}

namespace internal_crc32 {

uint32_t SlicingBy8Crc32(const void* data, size_t len) {
  return SlicingBy8(0xFFFFFFFFu, static_cast<const uint8_t*>(data), len) ^
         0xFFFFFFFFu;
}

const char* Crc32KernelName() {
  return ActiveKernel() == &SlicingBy8 ? "slicing-by-8" : "pclmulqdq";
}

}  // namespace internal_crc32
}  // namespace opaq
