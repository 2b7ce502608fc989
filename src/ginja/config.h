// Ginja configuration — the paper's control knobs (§5.1, §5.4, §6).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "cloud/transfer.h"
#include "common/codec/envelope.h"
#include "obs/obs.h"

namespace ginja {

class FleetRuntime;

struct GinjaConfig {
  // -- Batch / Safety model (§5.1) -------------------------------------------
  // B: maximum database updates (intercepted WAL writes) per cloud
  // synchronization. TB: a batch is also sent when this much model time has
  // passed since the last synchronization and updates are pending.
  std::size_t batch = 100;
  std::uint64_t batch_timeout_us = 1'000'000;

  // S: maximum updates that may be unconfirmed by the cloud before the
  // DBMS is blocked — the maximum data loss in a disaster. TS: writes also
  // block when the oldest unconfirmed update is older than this.
  std::size_t safety = 1000;
  std::uint64_t safety_timeout_us = 10'000'000;

  // -- pipeline ----------------------------------------------------------------
  // Parallel Uploader threads; the paper's evaluation fixes 5 (§8). Sizes
  // the private upload scheduler of an instance without a `runtime` (the
  // fleet's shared pool is sized by FleetRuntime::Options instead).
  int uploader_threads = 5;
  // Objects are split at this size to optimise upload latency (§5.2 fn. 3).
  std::size_t max_object_bytes = 20 * 1024 * 1024;
  // Retry policy (model time) for failed cloud operations: jittered
  // exponential backoff starting at retry_backoff_us, multiplied per
  // attempt up to retry_backoff_max_us. One RetryPolicy schedule is shared
  // by every TransferManager consumer, and the commit pipeline's upload
  // jobs draw from one thread-safe policy whichever worker runs them.
  std::uint64_t retry_backoff_us = 200'000;
  int max_retries = 100;
  double retry_backoff_multiplier = 2.0;
  std::uint64_t retry_backoff_max_us = 5'000'000;
  double retry_jitter = 0.2;

  // -- cloud transfer concurrency ---------------------------------------------
  // K: GETs kept in flight by the windowed recovery prefetcher (Alg. 1).
  // 1 reproduces the paper's serial download loop exactly.
  int recovery_prefetch = 8;
  // In-flight cap for checkpoint/dump part PUTs and GC DELETE fan-out.
  int transfer_concurrency = 8;

  // -- checkpoints ---------------------------------------------------------------
  // A dump replaces incremental checkpoints when cloud DB objects reach
  // this multiple of the local database size (§5.3: 150%).
  double dump_threshold = 1.5;
  // Content-addressed delta dumps (see ginja/dedup.h): a dump uploads a
  // small manifest referencing CHUNK/<sha1> objects, PUTting only chunks
  // not already in the cloud — O(changed pages) instead of O(DB). Off by
  // default; the monolithic path stays byte-identical to prior releases.
  bool dedup_dumps = false;
  // Chunk size for delta dumps. Must be a multiple of 4 KiB so boundaries
  // stay page-aligned for both DB flavors. The default balances dedup
  // granularity against per-chunk request latency on WAN-class stores:
  // smaller chunks dedup finer but make recovery base-latency-bound.
  std::size_t dedup_chunk_bytes = 256 * 1024;

  // -- object encoding (§5.4) -----------------------------------------------------
  EnvelopeOptions envelope;
  // Codec concurrency (including the encoding thread itself) for
  // chunk-parallel envelope encoding of large objects; one CodecPool is
  // shared by the commit and checkpoint pipelines. <= 1 encodes serially.
  int codec_threads = 4;

  // -- observability ---------------------------------------------------------------
  // Shared metrics registry + write tracer. When null, Ginja creates a
  // private bundle from `trace` below, so gauges and stage histograms are
  // always reachable via Ginja::observability(). Standalone pipelines
  // (constructed directly, outside Ginja) run unobserved when this is null.
  std::shared_ptr<Observability> obs;
  // Tracer options used only when `obs` is null and Ginja builds its own.
  TraceOptions trace;

  // -- fleet ------------------------------------------------------------------------
  // Shared fleet resources (uploader pool with DRR scheduling, one
  // TransferManager, one CodecPool, one obs bundle). Every instance runs
  // the same code path: upload jobs go to a deficit-round-robin scheduler
  // and checkpoint/GC/recovery transfers are billed to a TransferAccount
  // on a TransferManager. When set, the scheduler and manager are the
  // runtime's; when null, the instance is a fleet of one and owns private
  // ones (see ginja/fleet_runtime.h). B/S/TB semantics stay per-instance.
  // Normally injected by GinjaFleet::AddTenant, which also wraps the store
  // in a TenantNamespace.
  std::shared_ptr<FleetRuntime> runtime;
  // Label for per-tenant metric series (tenant=<id>, see TenantLabels) and
  // the scheduler queue; empty for a standalone instance, whose series
  // carry no tenant label.
  std::string tenant_id;

  // -- point-in-time recovery (§5.4) ----------------------------------------------
  // When true, garbage collection keeps superseded objects so the database
  // can be restored to any earlier checkpoint/WAL timestamp.
  bool keep_history = false;

  static GinjaConfig NoLoss() {  // paper's S = B = 1 synchronous mode
    GinjaConfig c;
    c.batch = 1;
    c.safety = 1;
    return c;
  }
};

// Sanity-checks the knobs whose values would make the pipelines hang or
// misbehave rather than fail: no uploader ever drains the queue, or dump
// chunks lose page alignment.
// Called by Ginja::Boot/Reboot before any thread starts, so a bad config
// is a clear error instead of a stuck database.
inline Status ValidateGinjaConfig(const GinjaConfig& config) {
  if (config.uploader_threads <= 0) {
    return Status::InvalidArgument(
        "uploader_threads must be >= 1 (0 uploads nothing and blocks every "
        "write at the S bound)");
  }
  if (config.dedup_dumps &&
      (config.dedup_chunk_bytes == 0 || config.dedup_chunk_bytes % 4096 != 0)) {
    return Status::InvalidArgument(
        "dedup_chunk_bytes must be a non-zero multiple of 4096 (chunk "
        "boundaries must stay page-aligned or churn detection degrades)");
  }
  return Status::Ok();
}

// The label set every per-instance metric series carries: {tenant=<id>}
// for a fleet member, so a shared registry keeps each tenant's series
// distinct, and no label for a standalone instance.
inline MetricLabels TenantLabels(const GinjaConfig& config) {
  return config.tenant_id.empty()
             ? MetricLabels{}
             : MetricLabels{{"tenant", config.tenant_id}};
}

// Maps the config's retry knobs onto a TransferManager's options with the
// given in-flight cap, so recovery, checkpoints, and GC share one policy.
inline TransferOptions MakeTransferOptions(const GinjaConfig& config,
                                           int concurrency) {
  TransferOptions o;
  o.concurrency = std::max(1, concurrency);
  o.max_attempts = std::max(1, config.max_retries);
  o.backoff_initial_us = config.retry_backoff_us;
  o.backoff_multiplier = config.retry_backoff_multiplier;
  o.backoff_max_us = config.retry_backoff_max_us;
  o.backoff_jitter = config.retry_jitter;
  return o;
}

}  // namespace ginja
