#include "common/codec/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define GINJA_PCLMUL_CAPABLE 1
#include <immintrin.h>
#endif

namespace ginja {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // IEEE 802.3, bit-reflected

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// state contribution of byte b followed by k zero bytes, which lets the
// slicing loop fold 8 input bytes with 8 independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = BuildTables();

// Slicing-by-8 over the CRC register `c`; callers apply the inversions.
std::uint32_t Slice8(const std::uint8_t* p, std::size_t n, std::uint32_t c) {
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
#endif
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef GINJA_PCLMUL_CAPABLE

bool HasPclmul() {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}

// Folding constants for the reflected polynomial (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009), in that paper's bit-reflected form, for the fold distances below.
constexpr std::uint64_t kFold512Lo = 0x154442bd4;  // x^(4*128+32) mod P
constexpr std::uint64_t kFold512Hi = 0x1c6e41596;  // x^(4*128-32) mod P
constexpr std::uint64_t kFold128Lo = 0x1751997d0;  // x^(128+32) mod P
constexpr std::uint64_t kFold128Hi = 0x0ccaa009e;  // x^(128-32) mod P
constexpr std::uint64_t kFold64 = 0x163cd6124;     // x^64 mod P
constexpr std::uint64_t kPolyP = 0x1db710641;      // P(x), reflected
constexpr std::uint64_t kBarrettMu = 0x1f7011641;  // floor(x^64 / P(x))

// Advances lane `a` by the distance its constant `k` encodes
// (a.lo * k.lo ^ a.hi * k.hi) and adds the block that distance lands on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i a,
                                                           __m128i k,
                                                           __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folds `n` bytes (n >= 64, n % 16 == 0) into the CRC register `c`: four
// 128-bit lanes stride through the input 64 bytes at a time, collapse into
// one lane, absorb the remaining 16-byte blocks, then reduce 128 -> 64 -> 32
// bits (the last step a Barrett reduction). Free function rather than a
// lambda because GCC applies target attributes per function.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t FoldPclmul(
    const std::uint8_t* p, std::size_t n, std::uint32_t c) {
  auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k512, load(p));
    x1 = Fold(x1, k512, load(p + 16));
    x2 = Fold(x2, k512, load(p + 32));
    x3 = Fold(x3, k512, load(p + 48));
  }

  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k128, load(p));

  // 128 -> 96 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k128, 0x10),
                     _mm_srli_si128(x0, 8));
  const __m128i k64 = _mm_set_epi64x(0, kFold64);
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k64, 0x00),
      _mm_srli_si128(x0, 4));

  // Barrett reduction to the 32-bit remainder.
  const __m128i pmu = _mm_set_epi64x(kBarrettMu, kPolyP);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pmu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

#endif  // GINJA_PCLMUL_CAPABLE

}  // namespace

std::uint32_t Crc32(ByteView data, std::uint32_t seed) {
#ifdef GINJA_PCLMUL_CAPABLE
  if (data.size() >= 64 && HasPclmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    const std::uint32_t c = FoldPclmul(data.data(), folded, ~seed);
    return ~Slice8(data.data() + folded, data.size() - folded, c);
  }
#endif
  return Crc32Portable(data, seed);
}

std::uint32_t Crc32Portable(ByteView data, std::uint32_t seed) {
  return ~Slice8(data.data(), data.size(), ~seed);
}

}  // namespace ginja
