#include "common/codec/envelope.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/codec/codec_pool.h"
#include "common/codec/lzss.h"

namespace ginja {

namespace {
constexpr std::uint32_t kMagicV1 = 0x314A4E47u;  // "GNJ1" little-endian
constexpr std::uint32_t kMagicV2 = 0x324A4E47u;  // "GNJ2" little-endian
constexpr std::uint8_t kFlagCompressed = 0x01;
constexpr std::uint8_t kFlagEncrypted = 0x02;

// CTR blocks reserved per v2 chunk: chunk i starts its keystream at counter
// i * BlocksPerChunk. enc_len never exceeds chunk_bytes (raw-store
// fallback), so chunk keystream ranges cannot overlap.
inline std::uint64_t BlocksPerChunk(std::size_t chunk_bytes) {
  return (static_cast<std::uint64_t>(chunk_bytes) + 15) / 16;
}
}  // namespace

Envelope::Envelope(EnvelopeOptions options)
    : options_(std::move(options)),
      enc_key_(DeriveKey(options_.password, "ginja-enc")),
      mac_key_(DeriveKey(options_.password, "ginja-mac")),
      enc_aes_(enc_key_) {}

Bytes Envelope::Encode(ByteView payload, std::uint64_t nonce) const {
  Bytes out;
  EncodeInto(OnePiece(payload), nonce, out);
  return out;
}

void Envelope::EncodeInto(const PayloadView& payload, std::uint64_t nonce,
                          Bytes& out) const {
  EncodeIntoWith(payload, nonce, enc_aes_, out);
}

void Envelope::EncodeIntoWith(const PayloadView& payload, std::uint64_t nonce,
                              const Aes128& aes, Bytes& out) const {
  if (payload.size() > options_.parallel_encode_threshold) {
    EncodeV2Into(payload, nonce, aes, out);
  } else {
    EncodeV1Into(payload, nonce, aes, out);
  }
}

Aes128 Envelope::DeriveObjectAes(ByteView key_tweak) const {
  const MacTag prf =
      HmacSha1(ByteView(enc_key_.data(), enc_key_.size()), key_tweak);
  Aes128::Key key;
  std::memcpy(key.data(), prf.data(), key.size());
  return Aes128(key);
}

Bytes Envelope::EncodeDerived(ByteView payload, std::uint64_t nonce,
                              ByteView key_tweak) const {
  if (!options_.encrypt) return Encode(payload, nonce);
  Bytes out;
  EncodeIntoWith(OnePiece(payload), nonce, DeriveObjectAes(key_tweak), out);
  return out;
}

Result<Bytes> Envelope::DecodeDerived(ByteView enveloped,
                                      ByteView key_tweak) const {
  if (!options_.encrypt) return Decode(enveloped);
  return DecodeWith(enveloped, DeriveObjectAes(key_tweak));
}

ByteView Envelope::GatherRange(const PayloadView& payload, std::size_t begin,
                               std::size_t len, Bytes& scratch) const {
  if (len == 0) return ByteView();
  std::size_t off = 0;
  std::size_t first = 0;
  for (; first < payload.pieces.size(); ++first) {
    const ByteView piece = payload.pieces[first];
    if (begin < off + piece.size()) {
      const std::size_t within = begin - off;
      if (piece.size() - within >= len) {
        return piece.subspan(within, len);  // whole range in one piece
      }
      break;
    }
    off += piece.size();
  }

  scratch.clear();
  scratch.reserve(len);
  stats_.bytes_copied.Add(len);
  std::size_t remaining = len;
  std::size_t pos = begin;
  for (std::size_t i = first; i < payload.pieces.size() && remaining > 0; ++i) {
    const ByteView piece = payload.pieces[i];
    if (pos >= off + piece.size()) {
      off += piece.size();
      continue;
    }
    const std::size_t within = pos - off;
    const std::size_t take = std::min(piece.size() - within, remaining);
    Append(scratch, piece.subspan(within, take));
    pos += take;
    remaining -= take;
    off += piece.size();
  }
  return View(scratch);
}

void Envelope::SealHeader(std::uint32_t magic, std::uint8_t flags,
                          std::uint64_t nonce, Bytes& out) const {
  const ByteView body = ByteView(out).subspan(kHeaderSize);
  stats_.bytes_macced.Add(body.size());
  const MacTag mac =
      HmacSha1(ByteView(mac_key_.data(), mac_key_.size()), body);

  std::uint8_t* h = out.data();
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(magic >> (8 * i));
  h[4] = flags;
  for (int i = 0; i < 8; ++i) h[5 + i] = static_cast<std::uint8_t>(nonce >> (8 * i));
  std::memcpy(h + 13, mac.data(), mac.size());
}

void Envelope::EncodeV1Into(const PayloadView& payload, std::uint64_t nonce,
                            const Aes128& aes, Bytes& out) const {
  out.clear();
  out.reserve(kHeaderSize + payload.size() + 16);
  out.resize(kHeaderSize);  // header patched last, once the body is final

  std::uint8_t flags = 0;
  if (options_.compress) {
    stats_.bytes_compressed.Add(payload.size());
    Bytes scratch;
    const ByteView whole = GatherRange(payload, 0, payload.size(), scratch);
    Lzss::CompressAppend(whole, out);
    if (out.size() - kHeaderSize < payload.size()) {
      flags |= kFlagCompressed;
    } else {
      // Incompressible: store raw so the envelope never costs more storage
      // than the plaintext would.
      out.resize(kHeaderSize);
      Append(out, whole);
    }
  } else {
    for (ByteView piece : payload.pieces) Append(out, piece);
  }

  if (options_.encrypt) {
    stats_.bytes_encrypted.Add(out.size() - kHeaderSize);
    aes.CtrInPlace(out.data() + kHeaderSize, out.size() - kHeaderSize, nonce);
    flags |= kFlagEncrypted;
  }

  SealHeader(kMagicV1, flags, options_.encrypt ? nonce : 0, out);
}

void Envelope::EncodeV2Into(const PayloadView& payload, std::uint64_t nonce,
                            const Aes128& aes, Bytes& out) const {
  const std::size_t chunk_bytes = options_.encode_chunk_bytes;
  const std::size_t total = payload.size();
  const std::size_t nchunks = (total + chunk_bytes - 1) / chunk_bytes;
  const std::uint64_t blocks_per_chunk = BlocksPerChunk(chunk_bytes);

  std::uint8_t flags = 0;
  if (options_.compress) flags |= kFlagCompressed;
  if (options_.encrypt) flags |= kFlagEncrypted;

  out.clear();
  out.reserve(kHeaderSize + 24 + total + nchunks * 8);
  out.resize(kHeaderSize);
  PutVarint(out, total);
  PutVarint(out, chunk_bytes);

  if (options_.compress) stats_.bytes_compressed.Add(total);
  if (options_.encrypt) stats_.bytes_encrypted.Add(total);

  // Encodes logical chunk i (compress + encrypt) appending to `dst`, whose
  // current tail must start at the chunk body position. Returns the token.
  auto encode_chunk = [&](std::size_t i, Bytes& dst, Bytes& scratch) {
    const std::size_t begin = i * chunk_bytes;
    const std::size_t len = std::min(chunk_bytes, total - begin);
    const ByteView chunk = GatherRange(payload, begin, len, scratch);
    const std::size_t body_pos = dst.size();

    bool compressed = false;
    if (options_.compress) {
      Lzss::CompressAppend(chunk, dst);
      if (dst.size() - body_pos < len) {
        compressed = true;
      } else {
        dst.resize(body_pos);  // raw-store: keeps enc_len <= chunk_bytes
      }
    }
    if (!compressed) Append(dst, chunk);

    const std::size_t enc_len = dst.size() - body_pos;
    if (options_.encrypt) {
      aes.CtrInPlace(dst.data() + body_pos, enc_len, nonce,
                     static_cast<std::uint64_t>(i) * blocks_per_chunk);
    }
    return static_cast<std::uint32_t>((enc_len << 1) |
                                      (compressed ? 1u : 0u));
  };

  const bool parallel = pool_ && pool_->threads() > 1 && nchunks > 1;
  if (!parallel) {
    Bytes scratch;
    for (std::size_t i = 0; i < nchunks; ++i) {
      const std::size_t tok_pos = out.size();
      out.resize(tok_pos + 4);  // token patched once enc_len is known
      const std::uint32_t token = encode_chunk(i, out, scratch);
      for (int b = 0; b < 4; ++b) {
        out[tok_pos + b] = static_cast<std::uint8_t>(token >> (8 * b));
      }
    }
  } else {
    // Chunks encode concurrently into per-chunk buffers, then concatenate.
    // Identical bytes to the serial path: each chunk's LZSS stream and CTR
    // counter range depend only on (payload, chunk index).
    std::vector<Bytes> bodies(nchunks);
    std::vector<std::uint32_t> tokens(nchunks);
    pool_->ParallelFor(nchunks, [&](std::size_t i) {
      Bytes scratch;
      tokens[i] = encode_chunk(i, bodies[i], scratch);
    });
    for (std::size_t i = 0; i < nchunks; ++i) {
      PutU32(out, tokens[i]);
      Append(out, View(bodies[i]));
    }
  }

  SealHeader(kMagicV2, flags, options_.encrypt ? nonce : 0, out);
}

Result<Bytes> Envelope::Decode(ByteView enveloped) const {
  return DecodeWith(enveloped, enc_aes_);
}

Result<Bytes> Envelope::DecodeWith(ByteView enveloped,
                                   const Aes128& aes) const {
  if (enveloped.size() < kHeaderSize) {
    return Status::Corruption("envelope shorter than header");
  }
  const std::uint32_t magic = GetU32(enveloped.data());
  if (magic != kMagicV1 && magic != kMagicV2) {
    return Status::Corruption("bad envelope magic");
  }
  const std::uint8_t flags = enveloped[4];
  const std::uint64_t nonce = GetU64(enveloped.data() + 5);

  MacTag stored_mac;
  std::memcpy(stored_mac.data(), enveloped.data() + 13, stored_mac.size());
  const ByteView body = enveloped.subspan(kHeaderSize);

  stats_.bytes_macced.Add(body.size());
  const MacTag actual =
      HmacSha1(ByteView(mac_key_.data(), mac_key_.size()), body);
  if (!MacEqual(stored_mac, actual)) {
    return Status::Corruption("object MAC mismatch");
  }

  return magic == kMagicV1 ? DecodeV1(flags, nonce, aes, body)
                           : DecodeV2(flags, nonce, aes, body);
}

Result<Bytes> Envelope::DecodeV1(std::uint8_t flags, std::uint64_t nonce,
                                 const Aes128& aes, ByteView body) const {
  Bytes work;
  if (flags & kFlagEncrypted) {
    work.assign(body.begin(), body.end());
    stats_.bytes_encrypted.Add(work.size());
    aes.CtrInPlace(work.data(), work.size(), nonce);  // decrypt in place
    body = View(work);
  }
  if (flags & kFlagCompressed) {
    auto plain = Lzss::Decompress(body);
    if (!plain) return Status::Corruption("LZSS stream corrupt");
    stats_.bytes_decompressed.Add(plain->size());
    return std::move(*plain);
  }
  if (flags & kFlagEncrypted) return work;
  return Bytes(body.begin(), body.end());  // the single copy: plain payload
}

Result<Bytes> Envelope::DecodeV2(std::uint8_t flags, std::uint64_t nonce,
                                 const Aes128& aes, ByteView body) const {
  std::size_t pos = 0;
  const auto total = GetVarint(body, pos);
  const auto chunk_bytes = GetVarint(body, pos);
  if (!total || !chunk_bytes || *chunk_bytes == 0) {
    return Status::Corruption("v2 envelope header truncated");
  }
  const std::uint64_t blocks_per_chunk = BlocksPerChunk(*chunk_bytes);

  // One working copy of the chunk stream so decryption runs in place.
  Bytes work(body.begin() + static_cast<std::ptrdiff_t>(pos), body.end());
  std::size_t wpos = 0;

  if (!pool_ || pool_->threads() <= 1) {
    Bytes out;
    out.reserve(*total);
    std::size_t chunk = 0;
    while (out.size() < *total) {
      if (wpos + 4 > work.size()) {
        return Status::Corruption("v2 chunk token truncated");
      }
      const std::uint32_t token = GetU32(work.data() + wpos);
      wpos += 4;
      const std::size_t enc_len = token >> 1;
      const bool compressed = (token & 1u) != 0;
      const std::size_t expect =
          std::min<std::size_t>(*chunk_bytes, *total - out.size());
      if (enc_len > *chunk_bytes || wpos + enc_len > work.size()) {
        return Status::Corruption("v2 chunk length out of range");
      }

      std::uint8_t* chunk_data = work.data() + wpos;
      if (flags & kFlagEncrypted) {
        stats_.bytes_encrypted.Add(enc_len);
        aes.CtrInPlace(chunk_data, enc_len, nonce,
                       static_cast<std::uint64_t>(chunk) * blocks_per_chunk);
      }
      const std::size_t before = out.size();
      if (compressed) {
        if (!Lzss::DecompressAppend(ByteView(chunk_data, enc_len), out)) {
          return Status::Corruption("v2 chunk LZSS stream corrupt");
        }
        stats_.bytes_decompressed.Add(out.size() - before);
      } else {
        Append(out, ByteView(chunk_data, enc_len));
      }
      if (out.size() - before != expect) {
        return Status::Corruption("v2 chunk size mismatch");
      }
      wpos += enc_len;
      ++chunk;
    }
    if (wpos != work.size() || out.size() != *total) {
      return Status::Corruption("v2 envelope trailing garbage");
    }
    return out;
  }

  // Parallel path: the token table is scanned serially (it is a few bytes
  // per chunk and each token's position depends on the previous chunk's
  // enc_len), then chunks decrypt/decompress concurrently, each writing its
  // fixed [i*chunk_bytes, i*chunk_bytes+expect) slice of the output —
  // disjoint slices, disjoint CTR counter ranges, no coordination needed.
  struct ChunkRef {
    std::size_t body_off = 0;
    std::size_t enc_len = 0;
    bool compressed = false;
  };
  std::vector<ChunkRef> chunks;
  std::size_t logical = 0;
  std::size_t enc_total = 0;
  while (logical < *total) {
    if (wpos + 4 > work.size()) {
      return Status::Corruption("v2 chunk token truncated");
    }
    const std::uint32_t token = GetU32(work.data() + wpos);
    wpos += 4;
    const std::size_t enc_len = token >> 1;
    if (enc_len > *chunk_bytes || wpos + enc_len > work.size()) {
      return Status::Corruption("v2 chunk length out of range");
    }
    chunks.push_back({wpos, enc_len, (token & 1u) != 0});
    wpos += enc_len;
    enc_total += enc_len;
    logical += std::min<std::size_t>(*chunk_bytes, *total - logical);
  }
  if (wpos != work.size()) {
    return Status::Corruption("v2 envelope trailing garbage");
  }
  if (flags & kFlagEncrypted) stats_.bytes_encrypted.Add(enc_total);

  Bytes out(*total);
  enum : int { kOk = 0, kLzssCorrupt = 1, kSizeMismatch = 2 };
  std::atomic<int> error{kOk};
  std::atomic<std::uint64_t> decompressed{0};
  pool_->ParallelFor(chunks.size(), [&](std::size_t i) {
    if (error.load(std::memory_order_relaxed) != kOk) return;
    const ChunkRef& c = chunks[i];
    const std::size_t begin = i * *chunk_bytes;
    const std::size_t expect =
        std::min<std::size_t>(*chunk_bytes, *total - begin);
    std::uint8_t* chunk_data = work.data() + c.body_off;
    if (flags & kFlagEncrypted) {
      aes.CtrInPlace(chunk_data, c.enc_len, nonce,
                     static_cast<std::uint64_t>(i) * blocks_per_chunk);
    }
    if (c.compressed) {
      Bytes plain;
      plain.reserve(expect);
      if (!Lzss::DecompressAppend(ByteView(chunk_data, c.enc_len), plain)) {
        error.store(kLzssCorrupt, std::memory_order_relaxed);
        return;
      }
      if (plain.size() != expect) {
        error.store(kSizeMismatch, std::memory_order_relaxed);
        return;
      }
      decompressed.fetch_add(expect, std::memory_order_relaxed);
      std::memcpy(out.data() + begin, plain.data(), expect);
    } else {
      if (c.enc_len != expect) {
        error.store(kSizeMismatch, std::memory_order_relaxed);
        return;
      }
      std::memcpy(out.data() + begin, chunk_data, expect);
    }
  });
  stats_.bytes_decompressed.Add(decompressed.load(std::memory_order_relaxed));
  switch (error.load(std::memory_order_relaxed)) {
    case kLzssCorrupt:
      return Status::Corruption("v2 chunk LZSS stream corrupt");
    case kSizeMismatch:
      return Status::Corruption("v2 chunk size mismatch");
    default:
      return out;
  }
}

}  // namespace ginja
