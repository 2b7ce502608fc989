// The commit pipeline — paper Algorithm 2 / Figure 3.
//
// Intercepted WAL writes enter through Submit; the Aggregator coalesces
// batches of up to B writes into WAL objects (page rewrites to the same
// offset collapse — the key cost optimisation); Uploader threads PUT the
// objects in parallel; the Unlocker removes batches from the pending
// window *in timestamp order* as their uploads are acknowledged, which is
// what bounds data loss to S even with out-of-order parallel uploads.
//
// The Uploaders are an UploadScheduler's workers: the fleet runtime's
// shared DRR scheduler when config.runtime is set, else a private one of
// `uploader_threads` workers with this pipeline as its only tenant (a
// fleet of one). Either way each WAL object is one upload job.
//
// A write blocks (stalling the DBMS inside its intercepted syscall) while
// more than S writes are unconfirmed, or while the oldest unconfirmed
// write has been pending longer than TS.
//
// Ingestion front end (DESIGN.md "Commit ingestion"): Submit is lock-free.
// A write claims a slot in one MPSC ring, and the order of those claims is
// the write sequence — Alg. 2's single submit queue. The Aggregator pops
// the ring in that order, so batches hold exactly the writes
// [batched, batched + B) in submission order, and the S/TS predicate reads
// three atomics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/transfer.h"
#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/codec/envelope.h"
#include "common/mpsc_queue.h"
#include "common/stats.h"
#include "db/layout.h"
#include "ginja/cloud_view.h"
#include "ginja/coalesce.h"
#include "ginja/config.h"
#include "ginja/fleet_runtime.h"
#include "ginja/payload.h"
#include "obs/obs.h"

namespace ginja {

// One intercepted WAL write, annotated by the processor with the WAL-stream
// range it covers (used for fuzzy-checkpoint-safe garbage collection).
struct WalWrite {
  std::string file;
  std::uint64_t offset = 0;
  Bytes data;
  std::uint64_t max_lsn = 0;  // exclusive end of the covered stream range
};

struct CommitPipelineStats {
  Counter writes_submitted;
  Counter batches_uploaded;
  Counter objects_uploaded;
  Counter bytes_uploaded;          // enveloped bytes
  Counter blocked_waits;           // times a Submit had to block
  Counter upload_retries;
  Counter batches_closed_full;     // batches closed because B writes were ready
  Counter batches_closed_deadline; // batches closed by the TB deadline
  Meter object_logical_bytes;      // pre-envelope object sizes
  // Per-write commit latency in model-time microseconds: Submit enqueue to
  // the write's batch being fully acknowledged by the cloud. Quantiles via
  // commit_latency_us.Snapshot().
  Histogram commit_latency_us;
};

class CommitPipeline {
 public:
  CommitPipeline(ObjectStorePtr store, std::shared_ptr<CloudView> view,
                 std::shared_ptr<Clock> clock, const GinjaConfig& config,
                 std::shared_ptr<Envelope> envelope);
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  void Start();
  // Blocks until every pending write is uploaded, then joins the threads.
  void Stop();
  // Abandons pending writes (simulates a primary-site crash).
  void Kill();

  // Called from the DBMS thread (via the processor). Implements Alg. 2
  // lines 4–7: enqueue, then block while S/TS would be violated. Safe to
  // call from any number of threads concurrently.
  void Submit(WalWrite write);

  // Blocks until the queue is empty (all writes confirmed).
  void Drain();

  std::size_t PendingWrites() const;

  // Exclusive end of the WAL-stream range that is durably recoverable from
  // the cloud: advanced by the Unlocker as *consecutive* batches are
  // acknowledged. The checkpoint pipeline withholds DB objects until this
  // frontier covers their page contents (see DESIGN.md, "prefix window").
  Lsn UploadedWalFrontier() const {
    return frontier_lsn_.load(std::memory_order_acquire);
  }

  // Invoked (off-lock, from the Unlocker thread) every time the frontier
  // advances; the checkpoint pipeline hooks this to wake its WAL-coverage
  // wait instead of polling UploadedWalFrontier(). Set before Start().
  void SetFrontierListener(std::function<void()> fn) {
    frontier_listener_ = std::move(fn);
  }

  const CommitPipelineStats& stats() const { return stats_; }

 private:
  static constexpr std::uint64_t kNoTrace = ~std::uint64_t{0};

  // A submitted write plus its ring position and enqueue time.
  struct Slot {
    std::uint64_t seq = 0;
    std::uint64_t enqueue_us = 0;
    // When the write was staged by the aggregator; set (with traced) only
    // for writes the tracer sampled, so the submit hot path never pays.
    std::uint64_t staged_us = 0;
    bool traced = false;
    WalWrite write;
  };
  struct Batch {
    std::uint64_t seq = 0;
    std::size_t item_count = 0;       // writes covered
    std::size_t objects_total = 0;
    std::size_t objects_acked = 0;
    Lsn max_lsn = 0;                  // frontier value once fully acked
  };
  // One WAL object: envelope + one blocking PUT.
  struct UploadJob {
    std::uint64_t batch_seq = 0;
    std::string name;
    // Entries travel unencoded and borrowed: each ref points at one of the
    // `data` buffers (heap allocations moved, never copied, out of the
    // submitted writes) and at a pipeline-lifetime interned file name. The
    // uploader frames them as a scatter-gather view and envelopes straight
    // from these buffers.
    std::vector<FileEntryRef> entries;
    std::vector<Bytes> data;
    std::uint64_t nonce = 0;
    // Trace id of the batch's first sampled write (kNoTrace when none) and
    // the batch-close time, the kEncodeQueue span's start.
    std::uint64_t trace_seq = kNoTrace;
    std::uint64_t close_us = 0;
  };
  // Acknowledges one uploaded (or permanently failed) object.
  struct Ack {
    std::uint64_t batch_seq = 0;
    bool uploaded = false;
    std::uint64_t trace_seq = kNoTrace;
    std::uint64_t put_end_us = 0;  // kAck span start
  };

  void AggregatorLoop();
  void UnlockerLoop();

  // Hands a formed job to this pipeline's queue in the upload scheduler,
  // weighted by the job's logical bytes.
  void EnqueueUpload(UploadJob job);
  // One upload job end to end (encode → PUT → ack), run on a scheduler
  // worker with that worker's reusable buffers.
  void ExecuteUploadJob(UploadJob job, UploadScratch& scratch);
  // Removes this pipeline's scheduler queue, then joins a private
  // scheduler's workers: the one shutdown path of the upload side.
  // `discard_queued` drops queued jobs unrun (Kill); either way it returns
  // once no job of this pipeline is running. Must follow the aggregator's
  // join, so nothing enqueues into a freed queue.
  void DeregisterUploads(bool discard_queued);

  // Alg. 2's blocking predicate over the submit counters (lock-free).
  bool ShouldBlock(std::uint64_t now_us) const;
  std::uint64_t Unconfirmed() const;

  // Aggregator internals. DrainRing stages every published write in ring
  // order.
  void DrainRing();
  void FormBatch(std::size_t take, std::uint64_t now_us, bool closed_full);
  // Sleeps model-time micros in slices, aborting on Kill(); false if killed.
  bool SleepInterruptible(std::uint64_t micros);

  // Registers stats + DR-exposure gauges into config_.obs (no-op when the
  // config carries no observability bundle), labelled by TenantLabels.
  void RegisterMetrics();
  bool Tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  static constexpr std::uint64_t kNoOldest = ~std::uint64_t{0};

  ObjectStorePtr store_;
  std::shared_ptr<CloudView> view_;
  std::shared_ptr<Clock> clock_;
  GinjaConfig config_;
  std::shared_ptr<Envelope> envelope_;

  // -- submit path (DBMS threads) --------------------------------------------
  // The one submit queue. A write's position in it is its seq, and
  // ring_.Claimed() counts the writes ever submitted.
  MpscRing<Slot> ring_;
  // Submit calls that have *returned* to the DBMS. The RPO-exposure gauge
  // is returned - completed: writes the database believes are committed but
  // the cloud has not yet confirmed — the writes a disaster would lose.
  // During an outage with continuous submits it reaches exactly S and holds
  // (Alg. 2 blocks the S+1'th returner).
  std::atomic<std::uint64_t> returned_count_{0};
  // Writes whose batch has been fully acknowledged (consecutive prefix).
  std::atomic<std::uint64_t> completed_count_{0};
  // Enqueue time of the oldest drained-but-unacknowledged write, or
  // kNoOldest. Writes still inside the ring are invisible here for at most
  // ~one aggregator poll (1 ms) — negligible against TS.
  std::atomic<std::uint64_t> oldest_pending_us_{kNoOldest};
  // Writes consumed into batches; published so Submit can cheaply decide
  // whether a full batch is pending and the aggregator needs a wakeup.
  std::atomic<std::uint64_t> batched_count_{0};
  // Clock sampled by the background threads (aggregator each pass, unlocker
  // each ack), used for enqueue stamps instead of a per-Submit clock read.
  // At most ~one poll interval stale, and never ahead of the real clock, so
  // commit latencies stay non-negative and TS ages err toward blocking
  // earlier.
  std::atomic<std::uint64_t> coarse_now_us_{0};

  std::atomic<bool> stopping_{false};
  std::atomic<bool> killed_{false};

  std::mutex block_mu_;                 // protects nothing: CV discipline only
  std::condition_variable unblock_cv_;  // woken on batch completion / kill

  std::mutex agg_mu_;
  std::condition_variable agg_cv_;      // woken when a full batch is pending
  // True only while the aggregator is parked in wait_for. Submitters check
  // it before touching agg_mu_, so a sustained burst (backlog >= B the whole
  // time) pays at most one notify per aggregator sleep instead of taking a
  // global mutex on every Submit — which would serialize the lock-free
  // path. A missed wake (flag read just before the store) costs at most one
  // poll interval.
  std::atomic<bool> agg_idle_{false};

  // -- aggregator-private (no locks) -----------------------------------------
  std::uint64_t popped_ = 0;            // ring position of the next pop
  std::deque<Slot> staged_;             // popped, awaiting batch formation
  CoalesceTable coalesce_;
  NameInterner names_;
  struct SurvivorRef {
    std::string_view file;
    std::uint64_t offset = 0;
    std::uint32_t index = 0;  // into staged_
  };
  std::vector<SurvivorRef> survivors_;  // reused across batches
  std::uint64_t last_agg_time_us_ = 0;
  std::uint64_t next_batch_seq_ = 0;

  // -- pending window (aggregator registers, unlocker retires) ---------------
  mutable std::mutex window_mu_;
  std::deque<Batch> batches_;                 // in seq order
  std::deque<std::uint64_t> pending_times_;   // enqueue times, seq order

  BlockingQueue<Ack> ack_queue_;

  std::vector<std::thread> threads_;
  std::atomic<Lsn> frontier_lsn_{0};
  // Set once an upload permanently fails (only possible at shutdown/kill):
  // the frontier must never advance past the resulting gap.
  std::atomic<bool> frontier_broken_{false};
  std::function<void()> frontier_listener_;
  CommitPipelineStats stats_;
  // Borrowed from config_.obs (which co-owns the bundle); null when the
  // pipeline runs unobserved.
  WriteTracer* tracer_ = nullptr;

  // -- upload executor ---------------------------------------------------------
  // The private scheduler of a pipeline without config_.runtime, alive
  // from Start() to Stop()/Kill(); null in a fleet.
  std::unique_ptr<UploadScheduler> own_scheduler_;
  // The runtime's scheduler or own_scheduler_; set by Start().
  UploadScheduler* scheduler_ = nullptr;
  // This pipeline's queue in scheduler_; null before Start() and after
  // deregistration.
  UploadScheduler::Tenant* sched_tenant_ = nullptr;
  // One retry schedule for every upload job, whichever worker runs it
  // (RetryPolicy is thread-safe).
  RetryPolicy retry_;
};

}  // namespace ginja
