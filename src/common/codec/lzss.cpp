#include "common/codec/lzss.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ginja {

namespace {

// The head table is sized to the input, ceil(log2 n) + 1 bits up to
// kMaxHashBits: a one-page object clears 64 KiB of heads rather than 1 MiB,
// and a commit-batch object (~200 KB) gets more slots than bytes, so false
// collisions rarely cost a chain probe.
constexpr int kMaxHashBits = 18;
constexpr int kMaxChainProbes = 16;  // "fastest" profile: few probes
// Most bytes one flag group can take: the control byte plus eight matches,
// each a 3-byte distance varint (< 2^21) and a 2-byte length varint.
constexpr std::size_t kMaxGroupBytes = 1 + 8 * (3 + 2);
// `out` grows this far ahead of the token cursor at a time.
constexpr std::size_t kGrowStep = 4096;
// Empty head/chain slot: far enough below every position that it fails the
// window check, so one compare ends a chain both at its end and at the
// window's edge.
constexpr std::int32_t kNoPos = INT32_MIN;

// ceil(log2 n) + 1, capped at kMaxHashBits; n >= 1.
inline int HashBits(std::size_t n) {
  return std::min(kMaxHashBits, static_cast<int>(std::bit_width(n - 1)) + 1);
}

inline std::uint32_t Load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t Hash(std::uint32_t v, int shift) {
  return (v * 2654435761u) >> shift;
}

inline std::uint8_t* PutVarintRaw(std::uint8_t* dst, std::size_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<std::uint8_t>(v);
  return dst;
}

// Length of the common prefix of a and b, capped at max_len. Compares a word
// at a time; the XOR of two words pinpoints the first differing byte.
inline std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                               std::size_t max_len) {
  std::size_t len = 0;
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (len + 8 <= max_len) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0) {
      return len + static_cast<std::size_t>(__builtin_ctzll(diff) >> 3);
    }
    len += 8;
  }
#endif
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

Bytes Lzss::Compress(ByteView input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  CompressAppend(input, out);
  return out;
}

void Lzss::CompressAppend(ByteView input, Bytes& out) {
  PutVarint(out, input.size());
  if (input.empty()) return;
  const std::uint8_t* const in = input.data();
  const std::size_t n = input.size();
  const int shift = 32 - HashBits(n);

  // Hash chains: head[h] = most recent position with hash h; prev[i % W] =
  // the previous position with the same hash as i, W = kWindow. `prev` is a
  // ring over the window: a chain walk stops at the first candidate more
  // than W back, and every slot it reads before that still holds its own
  // position's link. The scratch vectors are thread-local so repeated calls
  // (and the per-chunk parallel encoders) skip the allocation; `head` must
  // be reset every call, but `prev` needs no initialisation — a chain only
  // reaches entries inserted this call, and insertion writes the link
  // before making the position a chain head.
  thread_local std::vector<std::int32_t> head_buf;
  thread_local std::vector<std::int32_t> prev_buf(kWindow);
  head_buf.assign(std::size_t{1} << (32 - shift), kNoPos);
  std::int32_t* const head = head_buf.data();
  std::int32_t* const prev = prev_buf.data();
  auto insert = [&](std::size_t p, std::uint32_t h) {
    prev[p & (kWindow - 1)] = head[h];
    head[h] = static_cast<std::int32_t>(p);
  };

  // Tokens go straight into `out` through a raw cursor. Room for a whole
  // flag group is ensured when the group opens, so the per-token writes
  // need no bounds checks; `out` is trimmed to the cursor at the end.
  std::size_t used = out.size();
  out.resize(used + kGrowStep);
  std::uint8_t* dst = out.data() + used;
  std::uint8_t* flag_byte = dst++;
  std::uint8_t flags = 0;  // bit i set => token i is a match
  int flag_count = 0;

  std::size_t pos = 0;
  while (pos < n) {
    if (pos + kMinMatch > n) {
      *dst++ = in[pos++];  // too close to the end to start a match
    } else {
      const std::uint32_t cur = Load32(in + pos);
      const std::uint32_t h = Hash(cur, shift);
      const std::size_t max_len = std::min(kMaxMatch, n - pos);
      std::size_t best_len = 0;
      std::size_t best_dist = 0;
      std::int32_t cand = head[h];
      for (int probes = 0; probes < kMaxChainProbes; ++probes) {
        const auto dist = static_cast<std::size_t>(
            static_cast<std::int64_t>(pos) - cand);
        if (dist > kWindow) break;
        const std::uint8_t* a = in + cand;
        // A candidate must share the first kMinMatch bytes to be a match at
        // all, and must also match at offset best_len to beat the best so
        // far: two compares reject most losers.
        if (Load32(a) != cur || a[best_len] != in[pos + best_len]) {
          cand = prev[cand & (kWindow - 1)];
          continue;
        }
        const std::size_t len =
            kMinMatch + MatchLength(a + kMinMatch, in + pos + kMinMatch,
                                    max_len - kMinMatch);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == max_len) break;
        }
        cand = prev[cand & (kWindow - 1)];
      }

      insert(pos, h);
      if (best_len >= kMinMatch) {
        flags |= static_cast<std::uint8_t>(1u << flag_count);
        dst = PutVarintRaw(dst, best_dist);
        dst = PutVarintRaw(dst, best_len - kMinMatch);
        // Insert hash entries for every covered position (cheap, improves
        // later matches on page-structured data).
        const std::size_t end = pos + best_len;
        const std::size_t last = std::min(end, n - kMinMatch + 1);
        for (++pos; pos < last; ++pos) {
          insert(pos, Hash(Load32(in + pos), shift));
        }
        pos = end;
      } else {
        *dst++ = in[pos++];
      }
    }

    if (++flag_count == 8) {
      *flag_byte = flags;
      flags = 0;
      flag_count = 0;
      if (pos < n) {
        used = static_cast<std::size_t>(dst - out.data());
        if (out.size() - used < kMaxGroupBytes) {
          out.resize(out.size() + kGrowStep);
          dst = out.data() + used;
        }
        flag_byte = dst++;
      }
    }
  }
  if (flag_count > 0) *flag_byte = flags;
  out.resize(static_cast<std::size_t>(dst - out.data()));
}

std::optional<Bytes> Lzss::Decompress(ByteView input) {
  Bytes out;
  if (!DecompressAppend(input, out)) return std::nullopt;
  return out;
}

bool Lzss::DecompressAppend(ByteView input, Bytes& out) {
  std::size_t pos = 0;
  const auto orig_size = GetVarint(input, pos);
  if (!orig_size) return false;
  const std::size_t base = out.size();
  const std::size_t target = base + *orig_size;
  out.reserve(target);

  while (out.size() < target) {
    if (pos >= input.size()) return false;
    const std::uint8_t flags = input[pos++];
    for (int bit = 0; bit < 8 && out.size() < target; ++bit) {
      if (flags & (1u << bit)) {
        const auto dist = GetVarint(input, pos);
        const auto len_enc = GetVarint(input, pos);
        if (!dist || !len_enc || *dist == 0 || *dist > out.size() - base) {
          return false;
        }
        const std::size_t len =
            std::min<std::size_t>(*len_enc + Lzss::kMinMatch, target - out.size());
        if (len != *len_enc + Lzss::kMinMatch) return false;  // overruns size
        const std::size_t src = out.size() - *dist;
        out.resize(out.size() + len);
        std::uint8_t* dst = out.data() + out.size() - len;
        if (*dist >= len) {
          std::memcpy(dst, out.data() + src, len);
        } else {
          // Overlapping run: seed with the `dist`-byte period, then double
          // the copied region until the match is filled.
          std::memcpy(dst, out.data() + src, *dist);
          std::size_t copied = *dist;
          while (copied < len) {
            const std::size_t n = std::min(copied, len - copied);
            std::memcpy(dst + copied, dst, n);
            copied += n;
          }
        }
      } else {
        // Literal run: consume every consecutive 0-flag in this group with
        // one block copy instead of a byte-at-a-time loop.
        int run = 1;
        while (bit + run < 8 && !(flags & (1u << (bit + run)))) ++run;
        const std::size_t take = std::min<std::size_t>(
            {static_cast<std::size_t>(run), target - out.size(),
             input.size() - pos});
        if (take == 0) return false;
        Append(out, input.subspan(pos, take));
        pos += take;
        bit += static_cast<int>(take) - 1;
      }
    }
  }
  return out.size() == target;
}

}  // namespace ginja
