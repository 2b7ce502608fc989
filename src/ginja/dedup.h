// Content-addressed delta dumps — the dedup representation of a full dump.
//
// A monolithic dump re-uploads every database byte each time the 150% rule
// fires, so steady-state upload cost scales with DB size rather than with
// the change rate. The dedup representation splits the dump image into
// fixed-size, page-aligned chunks, names each chunk by the SHA-1 of its
// *plaintext* content —
//
//   CHUNK/<40-hex-digest>_<size>
//
// — and publishes the dump itself as a small *manifest* DB object
// (DB/<ts>_manifest_..., a single-part DbObjectId) whose payload lists
// (path, offset, length, digest) references. A second dump after partial
// churn uploads only the chunks whose content changed: O(changed pages),
// not O(DB).
//
// Torn-upload invisibility mirrors the multi-part dump rule: chunks are PUT
// first, the manifest strictly last. A crash mid-upload leaves orphan
// chunks (harmless — they are resumable dedup hits for the next dump and
// are swept by refcount GC) but never a visible inconsistent dump, because
// recovery only trusts manifests, and a manifest is only visible once all
// of its chunks are durable.
//
// Convergent encryption: a chunk's envelope AES key is derived from its
// *full* 160-bit content digest (Envelope::EncodeDerived) and its nonce
// from the digest prefix (ChunkNonce), so identical plaintext chunks
// produce identical ciphertext and dedup works across encrypted uploads.
// Deriving the key from the whole digest matters: a truncated-nonce
// collision alone (the ~2^28 birthday bound on ChunkNonce's 56 digest
// bits) reuses no keystream, because the colliding chunks encrypt under
// different keys — breaking confidentiality requires a full SHA-1
// collision. The usual convergent caveat still applies — an observer of
// the bucket can confirm a *guessed* plaintext chunk by hash equality;
// acceptable for database page images under a secret per-deployment key,
// and exactly the trade every content-addressed encrypted store makes.
//
// The ChunkIndex is the cloud-side chunk inventory plus manifest→chunk
// refcounts. GC invariant ordering (see CheckpointPipeline::GarbageCollect):
// a new manifest's chunks are Ref'd *before* any old manifest is released,
// so a chunk shared by consecutive dumps never transiently reaches
// refcount 0; zero-ref chunks are deleted only in a second wave after the
// manifest DELETEs were confirmed.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/object_store.h"
#include "common/codec/envelope.h"
#include "common/codec/sha1.h"
#include "common/result.h"
#include "ginja/payload.h"

namespace ginja {

class CodecPool;

// One chunk of a delta dump: `length` bytes of file `path` at `offset`,
// stored in the cloud as the object named by `digest`.
struct ChunkRef {
  std::string path;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  Sha1::Digest digest{};
};

// CHUNK/<40-hex-digest>_<size>. `size` is the plaintext chunk length —
// recorded in the name so the chunk inventory (and the cost model's
// storage-bytes sum) rebuilds from a LIST without any GETs.
struct ChunkObjectId {
  Sha1::Digest digest{};
  std::uint64_t size = 0;

  std::string Encode() const;
  static std::optional<ChunkObjectId> Decode(std::string_view name);
};

// Envelope nonce for a chunk object, derived from the content digest
// (convergent encryption; header comment). Tagged with top byte 0x51 —
// bit 63 clear — which is disjoint from every other nonce subspace: WAL
// objects use their (small) ts, DB parts (1<<63)|(seq<<16)|part, and the
// failover meta space 0xF0F0<<48. Nonce
// collisions between distinct chunks are harmless because each chunk also
// gets its own derived AES key (header comment); the nonce only needs to
// keep the *shared-key* subspaces apart.
std::uint64_t ChunkNonce(const Sha1::Digest& digest);

// Splits dump entries into `chunk_bytes`-sized pieces on boundaries
// aligned to the entry's own offsets (dump entries start at 0, so chunk
// boundaries are page-aligned for any page size dividing chunk_bytes) and
// hashes every chunk — fanned across `pool` when non-null, serial
// otherwise. Refs are returned in entry order, chunk order within.
std::vector<ChunkRef> ChunkDumpEntries(const std::vector<FileEntry>& entries,
                                       std::size_t chunk_bytes,
                                       CodecPool* pool);

// Manifest payload codec. Wire format:
//   "GMF1"  u32 magic
//   varint  ref count
//   per ref: varint path_len, path bytes, varint offset, varint length,
//            20-byte digest
Bytes EncodeManifest(const std::vector<ChunkRef>& refs);
Result<std::vector<ChunkRef>> DecodeManifest(ByteView payload);

// Thread-safe inventory of cloud-side chunks and the manifest→chunk
// reference counts that drive GC.
class ChunkIndex {
 public:
  // The chunk exists in the cloud (uploaded by us or found by LIST),
  // possibly with zero references (a resumable orphan).
  bool Contains(const Sha1::Digest& digest) const;
  void MarkPresent(const Sha1::Digest& digest, std::uint64_t size);

  // Records manifest `seq` as referencing `refs` (duplicates within one
  // manifest count once) and bumps each chunk's refcount. Idempotent per
  // seq: re-registering an already-known manifest is a no-op.
  void RegisterManifest(std::uint64_t seq, const std::vector<ChunkRef>& refs);

  // Drops manifest `seq`'s references. Chunks whose refcount reaches zero
  // stay *present* (they are still in the cloud) until RemoveChunk.
  void ReleaseManifest(std::uint64_t seq);

  // Present chunks no surviving manifest references — GC's delete set.
  std::vector<ChunkObjectId> ZeroRefChunks() const;

  // Forgets a chunk whose cloud DELETE was confirmed.
  void RemoveChunk(const Sha1::Digest& digest);

  // A visible manifest could not be decoded during a rebuild, so its chunk
  // references are unknowable. While quarantined, ZeroRefChunks() returns
  // empty — the zero-ref sweep must not run against an index that may be
  // missing references held by a still-visible manifest. Cleared by
  // Clear() (the next full rebuild decides afresh).
  void SetQuarantined();
  bool quarantined() const;

  std::size_t ChunkCount() const;
  std::uint64_t TotalChunkBytes() const;
  std::uint64_t RefCount(const Sha1::Digest& digest) const;
  void Clear();

 private:
  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t refs = 0;
  };
  mutable std::mutex mu_;
  bool quarantined_ = false;
  std::map<Sha1::Digest, Entry> chunks_;
  std::map<std::uint64_t, std::vector<Sha1::Digest>> manifests_;  // by seq
};

// Rebuilds the index from the bucket (Reboot path): chunk presence comes
// from CHUNK/ names alone; references come from decoding every *visible*
// manifest (each is a single-part object, so any listed manifest is
// complete). Failure handling is deliberately asymmetric, because a
// manifest that stays visible but loses its references would have its
// chunks swept as orphans — permanent data loss:
//   * GET NotFound — the manifest vanished between LIST and GET: really
//     gone, skipped.
//   * any other GET failure — possibly transient: the rebuild FAILS (the
//     caller retries the Reboot) rather than mistaking the manifest for
//     absent.
//   * decode failure — genuinely corrupt (the MAC rules out a bad fetch):
//     the manifest is skipped, matching recovery's rejection, but the
//     index is quarantined so the zero-ref sweep cannot delete chunks the
//     undecodable manifest may still reference.
Status RebuildChunkIndex(ObjectStore& store, const Envelope& envelope,
                         const std::vector<ObjectMeta>& objects,
                         ChunkIndex* index);

// Test/GC audit: cross-checks the bucket against its own manifests.
// `missing` — digests referenced by a visible manifest with no CHUNK/
// object backing them (would fail recovery: must always be empty);
// `orphans` — CHUNK/ objects no visible manifest references (a permanent
// leak if GC ran with nothing in flight).
struct ChunkAudit {
  std::vector<std::string> missing;
  std::vector<std::string> orphans;
  std::size_t manifests = 0;
  std::size_t chunks = 0;
};
Result<ChunkAudit> AuditChunks(ObjectStore& store, const Envelope& envelope);

}  // namespace ginja
