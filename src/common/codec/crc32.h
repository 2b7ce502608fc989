// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected) — the engine's
// integrity check for WAL records, WAL pages, data pages, the control file
// and the catalog, mirroring what PostgreSQL and InnoDB do with per-record
// and per-page checksums.
//
// Two kernels, chosen at runtime: on x86-64 CPUs with PCLMULQDQ, inputs of
// 64 bytes or more are folded four 128-bit lanes at a time with carry-less
// multiplies and reduced with a Barrett step (Intel's generic-polynomial
// folding); shorter inputs, the sub-16-byte tail and every other CPU use
// slicing-by-8 tables. Both give bit-identical results.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace ginja {

// CRC of `data`. Passing a previous result as `seed` continues it:
// Crc32(b, Crc32(a)) == Crc32(a ‖ b).
std::uint32_t Crc32(ByteView data, std::uint32_t seed = 0);

// The slicing-by-8 kernel alone, whatever the CPU supports; Crc32 must
// always agree with it.
std::uint32_t Crc32Portable(ByteView data, std::uint32_t seed = 0);

}  // namespace ginja
