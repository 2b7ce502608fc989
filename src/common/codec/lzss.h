// LZSS compression implemented from scratch.
//
// Stand-in for the paper's "ZLIB configured for fastest operation" (§6):
// a greedy LZ77 variant with a hash-chain match finder, emitting
// (literal | back-reference) tokens with varint lengths. On WAL pages full
// of TPC-C rows it achieves roughly the paper's compression rate (~1.4×).
//
// Match finder: a 4-byte hash indexes a head table of ceil(log2 n) + 1 bits
// (at most 2^18 slots), so small inputs clear a small table and large ones
// see few false collisions; chain links live in a kWindow-sized ring. Each
// position walks at most 16 chain candidates, dropping most with a 4-byte
// and a one-byte compare, and every position (inside matches too) is
// inserted. Tokens are written straight into the caller's buffer through a
// raw cursor that has room for a whole flag group reserved ahead.
//
// Format: [varint original_size] then a token stream. Each control byte
// holds 8 flags (LSB first); flag=0 → literal byte, flag=1 → match:
// varint distance (>=1), varint length (>= kMinMatch).
#pragma once

#include <optional>

#include "common/bytes.h"

namespace ginja {

class Lzss {
 public:
  static constexpr std::size_t kMinMatch = 4;
  static constexpr std::size_t kMaxMatch = 255 + kMinMatch;
  static constexpr std::size_t kWindow = 1 << 16;

  static Bytes Compress(ByteView input);

  // Appends the compressed stream to `out` without allocating an output
  // buffer of its own — the envelope encoder compresses straight into the
  // upload buffer it has already reserved.
  static void CompressAppend(ByteView input, Bytes& out);

  // Returns nullopt if the stream is malformed/truncated.
  static std::optional<Bytes> Decompress(ByteView input);

  // Appends the decompressed payload to `out`; returns false on a
  // malformed/truncated stream (out may then hold a partial suffix). Match
  // back-references may not reach before the append start.
  static bool DecompressAppend(ByteView input, Bytes& out);
};

}  // namespace ginja
