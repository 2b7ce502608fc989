#include "ginja/commit_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "obs/log.h"

namespace ginja {

namespace {
// Poll interval for time-based predicates (TB/TS); wall time, so it works
// with any Clock scale.
constexpr auto kPollInterval = std::chrono::milliseconds(1);
// Slice length for kill-interruptible backoff sleeps (model time).
constexpr std::uint64_t kSleepSliceUs = 20'000;
}  // namespace

CommitPipeline::CommitPipeline(ObjectStorePtr store,
                               std::shared_ptr<CloudView> view,
                               std::shared_ptr<Clock> clock,
                               const GinjaConfig& config,
                               std::shared_ptr<Envelope> envelope)
    : store_(std::move(store)),
      view_(std::move(view)),
      clock_(std::move(clock)),
      config_(config),
      envelope_(std::move(envelope)),
      // The ring absorbs a full S backlog plus a batch in flight; beyond
      // that Submit backpressures by spinning, which S-blocking normally
      // prevents from ever happening.
      ring_(std::min<std::size_t>(config_.safety + config_.batch + 64,
                                  65536)),
      retry_(MakeTransferOptions(config_, 1), &stats_.upload_retries) {
  last_agg_time_us_ = clock_->NowMicros();
  coarse_now_us_.store(last_agg_time_us_, std::memory_order_release);
  if (config_.obs) {
    tracer_ = &config_.obs->tracer;
    RegisterMetrics();
  }
}

CommitPipeline::~CommitPipeline() {
  if (config_.obs) config_.obs->registry.Unregister(this);
  Kill();
}

void CommitPipeline::RegisterMetrics() {
  MetricsRegistry& r = config_.obs->registry;
  const MetricLabels labels = TenantLabels(config_);
  r.RegisterCounter(this, "ginja_commit_writes_submitted_total", labels,
                    &stats_.writes_submitted);
  r.RegisterCounter(this, "ginja_commit_batches_uploaded_total", labels,
                    &stats_.batches_uploaded);
  r.RegisterCounter(this, "ginja_commit_objects_uploaded_total", labels,
                    &stats_.objects_uploaded);
  r.RegisterCounter(this, "ginja_commit_bytes_uploaded_total", labels,
                    &stats_.bytes_uploaded);
  r.RegisterCounter(this, "ginja_commit_blocked_waits_total", labels,
                    &stats_.blocked_waits);
  r.RegisterCounter(this, "ginja_commit_upload_retries_total", labels,
                    &stats_.upload_retries);
  r.RegisterCounter(this, "ginja_commit_batches_closed_full_total", labels,
                    &stats_.batches_closed_full);
  r.RegisterCounter(this, "ginja_commit_batches_closed_deadline_total", labels,
                    &stats_.batches_closed_deadline);
  r.RegisterMeter(this, "ginja_commit_object_logical_bytes", labels,
                  &stats_.object_logical_bytes);
  r.RegisterHistogram(this, "ginja_commit_latency_us", labels,
                      &stats_.commit_latency_us);
  // -- DR exposure gauges (the paper's loss bound, live) ---------------------
  r.RegisterGauge(this, "ginja_rpo_exposure_writes", labels, [this] {
    const std::uint64_t completed =
        completed_count_.load(std::memory_order_acquire);
    const std::uint64_t returned =
        returned_count_.load(std::memory_order_acquire);
    // completed can transiently lead returned: a write may be acknowledged
    // before its own Submit call has returned.
    return completed >= returned ? 0.0
                                 : static_cast<double>(returned - completed);
  });
  r.RegisterGauge(this, "ginja_rpo_limit_writes", labels, [this] {
    return static_cast<double>(config_.safety);
  });
  r.RegisterGauge(this, "ginja_unconfirmed_writes", labels, [this] {
    return static_cast<double>(Unconfirmed());
  });
  r.RegisterGauge(this, "ginja_oldest_unacked_age_us", labels, [this] {
    const std::uint64_t oldest =
        oldest_pending_us_.load(std::memory_order_acquire);
    if (oldest == kNoOldest) return 0.0;
    const std::uint64_t now = coarse_now_us_.load(std::memory_order_acquire);
    return now > oldest ? static_cast<double>(now - oldest) : 0.0;
  });
  r.RegisterGauge(this, "ginja_wal_frontier_lsn", labels, [this] {
    return static_cast<double>(frontier_lsn_.load(std::memory_order_acquire));
  });
}

void CommitPipeline::Start() {
  // Uploads run on scheduler workers; only the control threads (aggregator,
  // unlocker) are this pipeline's own.
  if (config_.runtime) {
    scheduler_ = &config_.runtime->scheduler();
  } else {
    own_scheduler_ = std::make_unique<UploadScheduler>(
        UploadScheduler::Options{.threads = config_.uploader_threads});
    scheduler_ = own_scheduler_.get();
  }
  sched_tenant_ = scheduler_->Register(config_.tenant_id);
  threads_.emplace_back([this] { AggregatorLoop(); });
  threads_.emplace_back([this] { UnlockerLoop(); });
}

void CommitPipeline::DeregisterUploads(bool discard_queued) {
  if (sched_tenant_ == nullptr) return;
  scheduler_->Deregister(sched_tenant_, discard_queued);
  sched_tenant_ = nullptr;
  own_scheduler_.reset();  // joins the private workers, now idle
}

void CommitPipeline::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
  }
  agg_cv_.notify_all();
  Drain();
  ack_queue_.Close();
  {
    std::lock_guard<std::mutex> lock(block_mu_);
  }
  unblock_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Every batch retired means the scheduler queue is empty; a clean
  // deregistration just waits out any job still finishing on a worker.
  DeregisterUploads(/*discard_queued=*/false);
}

void CommitPipeline::Kill() {
  if (killed_.exchange(true, std::memory_order_acq_rel)) return;
  // A kill with unconfirmed writes is the disaster the tracer's flight
  // recorder exists for: dump the last spans before abandoning them.
  if (Tracing() && Unconfirmed() > 0 && config_.obs) {
    config_.obs->DumpFlightRecorder("commit_kill");
  }
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
  }
  agg_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(block_mu_);
  }
  unblock_cv_.notify_all();
  ack_queue_.Close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Drop queued upload jobs unrun (the crash abandons them) and wait out
  // the ones a worker is already executing — they observe killed_ and bail
  // at their next check.
  DeregisterUploads(/*discard_queued=*/true);
}

std::uint64_t CommitPipeline::Unconfirmed() const {
  // Read completed first: between the two loads both counters can only
  // grow, so a stale completed count makes the estimate *larger* — the S
  // bound errs toward blocking, never toward extra loss.
  const std::uint64_t completed =
      completed_count_.load(std::memory_order_acquire);
  const std::uint64_t submitted = ring_.Claimed();
  return submitted - completed;
}

bool CommitPipeline::ShouldBlock(std::uint64_t now_us) const {
  if (Unconfirmed() > config_.safety) return true;
  const std::uint64_t oldest = oldest_pending_us_.load(std::memory_order_acquire);
  return oldest != kNoOldest && now_us - oldest >= config_.safety_timeout_us;
}

void CommitPipeline::Submit(WalWrite write) {
  if (killed_.load(std::memory_order_acquire)) return;
  Slot slot;
  slot.write = std::move(write);
  // Coarse enqueue stamp: see coarse_now_us_. Saves a clock read per
  // Submit; the error is bounded by one aggregator poll and biased old,
  // which only over-ages writes against the seconds-scale TS bound.
  const std::uint64_t enqueue_us =
      coarse_now_us_.load(std::memory_order_relaxed);
  slot.enqueue_us = enqueue_us;
  // Ring full = S-sized backlog; spin as backpressure. The write is never
  // lost, only delayed, and takes its place in the sequence only once its
  // claim lands.
  std::size_t seq = 0;
  while (!ring_.TryPush(slot, &seq)) {
    if (killed_.load(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
  stats_.writes_submitted.Add();

  // Wake the Aggregator only when a full batch is pending AND it is
  // parked; partial batches are picked up by its TB poll. Skipping the
  // notify while it is awake keeps agg_mu_ off the submit hot path — under
  // a burst every thread would otherwise serialize on it here.
  if (seq + 1 - batched_count_.load(std::memory_order_relaxed) >=
          config_.batch &&
      agg_idle_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(agg_mu_);
    }
    agg_cv_.notify_one();
  }

  // Block while S/TS would be violated. The slow path is event-driven (no
  // polling): while blocked, ShouldBlock can only flip to false through an
  // Unlocker completion, and every completion updates the counters *before*
  // signalling unblock_cv_ (with an empty block_mu_ critical section
  // ordering the two), so waiting without a timeout is safe. Time passing
  // alone never unblocks — it only ages the oldest write toward the TS
  // limit. The fast path reuses the enqueue timestamp (TS is seconds-scale,
  // the push is microseconds).
  if (ShouldBlock(enqueue_us)) {
    std::unique_lock<std::mutex> lock(block_mu_);
    bool blocked = false;
    while (!killed_.load(std::memory_order_acquire) &&
           ShouldBlock(clock_->NowMicros())) {
      if (!blocked) {
        blocked = true;
        stats_.blocked_waits.Add();  // counted on entry: observable mid-stall
      }
      unblock_cv_.wait(lock);
    }
  }
  // The write is now "committed" as far as the DBMS can tell — this is the
  // instant it joins the RPO-exposure window (see ginja_rpo_exposure_writes).
  returned_count_.fetch_add(1, std::memory_order_release);
}

void CommitPipeline::Drain() {
  std::unique_lock<std::mutex> lock(block_mu_);
  unblock_cv_.wait(lock, [&] {
    return killed_.load(std::memory_order_acquire) || Unconfirmed() == 0;
  });
}

std::size_t CommitPipeline::PendingWrites() const {
  return static_cast<std::size_t>(Unconfirmed());
}

void CommitPipeline::DrainRing() {
  const std::size_t first = staged_.size();
  Slot slot;
  while (ring_.TryPop(slot)) {
    // Pops come in claim order, so counting them yields each write's ring
    // position: its place in the submit sequence.
    slot.seq = popped_++;
    staged_.push_back(std::move(slot));
  }
  if (staged_.size() == first) return;
  if (Tracing()) {
    // One clock read per drain, and only with the tracer on: the submit
    // hot path carries zero tracing cost, sampled writes get stamped here.
    const std::uint64_t now = clock_->NowMicros();
    for (std::size_t i = first; i < staged_.size(); ++i) {
      Slot& staged = staged_[i];
      if (!tracer_->Sampled(staged.seq)) continue;
      staged.traced = true;
      staged.staged_us = now;
      tracer_->Record(TraceStage::kSubmit, staged.seq, staged.enqueue_us, 0);
      tracer_->Record(TraceStage::kStaged, staged.seq, staged.enqueue_us,
                      now >= staged.enqueue_us ? now - staged.enqueue_us : 0);
    }
  }
  // Newly staged writes become TS-visible: publish the oldest pending
  // enqueue time. Writes still inside the ring are invisible to TS for at
  // most ~one poll interval, negligible against TS >= milliseconds.
  std::lock_guard<std::mutex> lock(window_mu_);
  for (std::size_t i = first; i < staged_.size(); ++i) {
    pending_times_.push_back(staged_[i].enqueue_us);
  }
  oldest_pending_us_.store(pending_times_.front(), std::memory_order_release);
}

void CommitPipeline::AggregatorLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(agg_mu_);
      agg_idle_.store(true, std::memory_order_release);
      agg_cv_.wait_for(lock, kPollInterval, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               ring_.Claimed() -
                       batched_count_.load(std::memory_order_relaxed) >=
                   config_.batch;
      });
      agg_idle_.store(false, std::memory_order_release);
    }
    if (killed_.load(std::memory_order_acquire)) return;
    DrainRing();
    const std::uint64_t now = clock_->NowMicros();
    coarse_now_us_.store(now, std::memory_order_release);
    if (staged_.empty()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    while (staged_.size() >= config_.batch) {
      FormBatch(config_.batch, now, /*closed_full=*/true);
    }
    if (!staged_.empty()) {
      const bool stop_flush = stopping_.load(std::memory_order_acquire);
      if (stop_flush) {
        // Stop() can land mid-pass: writes submitted before the stop but
        // after this pass's DrainRing are still in the ring. Pick them up
        // before the final flush so shutdown forms the same full batches a
        // quiescent stop would, even when Stop races this loop.
        DrainRing();
        while (staged_.size() >= config_.batch) {
          FormBatch(config_.batch, now, /*closed_full=*/true);
        }
      }
      if ((stop_flush || now - last_agg_time_us_ >= config_.batch_timeout_us) &&
          !staged_.empty()) {
        FormBatch(staged_.size(), now, /*closed_full=*/false);
      }
    }
  }
}

void CommitPipeline::FormBatch(std::size_t take, std::uint64_t now_us,
                               bool closed_full) {
  // Aggregate (Alg. 2 lines 12-13): coalesce rewrites of the same page —
  // last write wins — so only surviving pages are encoded (a B=1000 batch
  // usually collapses to a handful of pages). The reusable table replaces
  // a per-batch std::map: zero allocation at steady state.
  coalesce_.Begin(take);
  for (std::size_t i = 0; i < take; ++i) {
    const WalWrite& w = staged_[i].write;
    coalesce_.Upsert(w.file, w.offset, static_cast<std::uint32_t>(i));
  }
  survivors_.clear();
  coalesce_.ForEach(
      [&](std::string_view file, std::uint64_t offset, std::uint32_t index) {
        survivors_.push_back({file, offset, index});
      });
  // (file, offset) order reproduces the old sorted-map iteration exactly,
  // keeping object contents byte-identical to the previous design.
  std::sort(survivors_.begin(), survivors_.end(),
            [](const SurvivorRef& a, const SurvivorRef& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.offset < b.offset;
            });

  // Per-file runs become objects, split at the object-size limit. Entry
  // refs borrow the submitted writes' own buffers (moved, never copied)
  // and pipeline-lifetime interned names; the uploader encodes straight
  // from them.
  struct PendingObject {
    std::vector<FileEntryRef> entries;
    std::vector<Bytes> data;
    std::string_view file;
    std::uint64_t first_offset = 0;
    std::uint64_t max_lsn = 0;
  };
  std::vector<PendingObject> objects;
  std::size_t i = 0;
  while (i < survivors_.size()) {
    std::size_t j = i;
    std::uint64_t run_max_lsn = 0;
    while (j < survivors_.size() && survivors_[j].file == survivors_[i].file) {
      run_max_lsn = std::max(run_max_lsn,
                             staged_[survivors_[j].index].write.max_lsn);
      ++j;
    }
    const std::string_view file = names_.Intern(survivors_[i].file);
    objects.emplace_back();
    PendingObject* current = &objects.back();
    current->file = file;
    current->first_offset = survivors_[i].offset;
    current->max_lsn = run_max_lsn;  // splits cover the same WAL range
    std::size_t bytes = 0;
    for (std::size_t k = i; k < j; ++k) {
      Slot& slot = staged_[survivors_[k].index];
      if (!current->entries.empty() &&
          bytes + slot.write.data.size() > config_.max_object_bytes) {
        objects.emplace_back();
        current = &objects.back();
        current->file = file;
        current->first_offset = slot.write.offset;
        current->max_lsn = run_max_lsn;
        bytes = 0;
      }
      bytes += slot.write.data.size();
      current->entries.push_back(
          {file, slot.write.offset, View(slot.write.data)});
      current->data.push_back(std::move(slot.write.data));
    }
    i = j;
  }
  // Order objects by the WAL-stream range they cover so timestamps stay
  // monotone in LSN (the prefix-GC invariant).
  std::stable_sort(objects.begin(), objects.end(),
                   [](const PendingObject& a, const PendingObject& b) {
                     return a.max_lsn < b.max_lsn;
                   });

  // The batch's trace id is its first sampled write; every object of the
  // batch carries it, so the decomposition sees each object's PUT.
  std::uint64_t trace_seq = kNoTrace;
  if (Tracing()) {
    for (std::size_t k = 0; k < take; ++k) {
      if (!staged_[k].traced) continue;
      tracer_->Record(TraceStage::kBatchClose, staged_[k].seq,
                      staged_[k].staged_us,
                      now_us >= staged_[k].staged_us
                          ? now_us - staged_[k].staged_us
                          : 0);
      if (trace_seq == kNoTrace) trace_seq = staged_[k].seq;
    }
  }

  Batch batch;
  batch.seq = next_batch_seq_++;
  batch.item_count = take;
  batch.objects_total = objects.size();
  for (const auto& obj : objects) {
    batch.max_lsn = std::max(batch.max_lsn, obj.max_lsn);
  }
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    batches_.push_back(batch);
  }
  batched_count_.fetch_add(take, std::memory_order_release);
  (closed_full ? stats_.batches_closed_full : stats_.batches_closed_deadline)
      .Add();

  for (auto& obj : objects) {
    WalObjectId id;
    id.ts = view_->NextWalTs();
    id.filename = std::string(obj.file);
    id.offset = obj.first_offset;
    id.max_lsn = obj.max_lsn;

    UploadJob job;
    job.batch_seq = batch.seq;
    job.name = id.Encode();
    job.entries = std::move(obj.entries);
    job.data = std::move(obj.data);
    job.nonce = id.ts;
    job.trace_seq = trace_seq;
    job.close_us = now_us;
    EnqueueUpload(std::move(job));
  }
  staged_.erase(staged_.begin(),
                staged_.begin() + static_cast<std::ptrdiff_t>(take));
  last_agg_time_us_ = now_us;
}

bool CommitPipeline::SleepInterruptible(std::uint64_t micros) {
  while (micros > 0) {
    if (killed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t slice = std::min(micros, kSleepSliceUs);
    clock_->SleepMicros(slice);
    micros -= slice;
  }
  return !killed_.load(std::memory_order_acquire);
}

void CommitPipeline::EnqueueUpload(UploadJob job) {
  // The DRR cost is the job's logical payload bytes — what the PUT path
  // actually pays for. Boxed because std::function requires a copyable
  // target and the job owns the write buffers (moved, never copied).
  std::size_t cost = 0;
  for (const Bytes& d : job.data) cost += d.size();
  auto boxed = std::make_shared<UploadJob>(std::move(job));
  scheduler_->Enqueue(sched_tenant_, cost,
                      [this, boxed](UploadScratch& scratch) {
                        ExecuteUploadJob(std::move(*boxed), scratch);
                      });
}

void CommitPipeline::ExecuteUploadJob(UploadJob job, UploadScratch& scratch) {
  Bytes& enveloped = scratch.enveloped;
  const bool traced = job.trace_seq != kNoTrace && Tracing();
  std::uint64_t t_encode = 0;
  if (traced) {
    t_encode = clock_->NowMicros();
    tracer_->Record(TraceStage::kEncodeQueue, job.trace_seq, job.close_us,
                    t_encode >= job.close_us ? t_encode - job.close_us : 0);
  }
  const PayloadView payload = EncodeEntriesView(job.entries, scratch.framing);
  stats_.object_logical_bytes.Record(static_cast<double>(payload.size()));
  envelope_->EncodeInto(payload, job.nonce, enveloped);
  if (traced) {
    const std::uint64_t t_done = clock_->NowMicros();
    tracer_->Record(TraceStage::kEncode, job.trace_seq, t_encode,
                    t_done - t_encode);
  }
  bool uploaded = false;
  std::uint64_t first_attempt_us = 0;
  std::uint64_t put_end_us = 0;
  Status last_status = Status::Ok();
  for (int attempt = 1; attempt <= retry_.max_attempts(); ++attempt) {
    if (attempt == 1) first_attempt_us = clock_->NowMicros();
    Status st = store_->Put(job.name, View(enveloped));
    if (st.ok()) {
      if (traced) put_end_us = clock_->NowMicros();
      uploaded = true;
      break;
    }
    last_status = st;
    if (killed_.load(std::memory_order_acquire) ||
        attempt >= retry_.max_attempts() ||
        !RetryPolicy::Retryable(st.code())) {
      break;
    }
    if (!SleepInterruptible(retry_.NextBackoffUs(attempt))) break;
  }
  if (uploaded) {
    stats_.objects_uploaded.Add();
    stats_.bytes_uploaded.Add(enveloped.size());
    if (auto id = WalObjectId::Decode(job.name)) view_->AddWal(*id);
    // kPut covers first attempt → success, retries and backoff included:
    // it decomposes outage pain, not just the happy-path round-trip.
    if (traced) {
      tracer_->Record(TraceStage::kPut, job.trace_seq, first_attempt_us,
                      put_end_us - first_attempt_us);
    }
  } else if (!killed_.load(std::memory_order_acquire)) {
    // A permanently failed upload outside a kill breaks the recoverable
    // frontier for good — worth a structured record, not a silent drop.
    Log(LogLevel::kError, "commit", "upload permanently failed",
        {{"object", job.name}, {"status", last_status.ToString()}});
  }
  // Acknowledge even on permanent failure so Stop() can complete — but a
  // failed ack freezes the recoverable frontier (UnlockerLoop), so no
  // checkpoint can ever claim WAL coverage across the gap.
  Ack ack;
  ack.batch_seq = job.batch_seq;
  ack.uploaded = uploaded;
  // kAck only makes sense off a successful PUT's end time.
  ack.trace_seq = (traced && uploaded) ? job.trace_seq : kNoTrace;
  ack.put_end_us = put_end_us;
  ack_queue_.ForcePut(std::move(ack));
}

void CommitPipeline::UnlockerLoop() {
  while (auto ack = ack_queue_.Take()) {
    const std::uint64_t now = clock_->NowMicros();
    coarse_now_us_.store(now, std::memory_order_release);
    bool advanced = false;
    std::uint64_t completed = 0;
    {
      std::lock_guard<std::mutex> lock(window_mu_);
      if (!ack->uploaded) frontier_broken_.store(true);
      for (auto& batch : batches_) {
        if (batch.seq == ack->batch_seq) {
          ++batch.objects_acked;
          break;
        }
      }
      // Remove completed batches from the head only — this is the
      // consecutive-timestamp rule that bounds loss to S despite parallel
      // out-of-order uploads (Alg. 2 lines 19-22).
      while (!batches_.empty() &&
             batches_.front().objects_acked >= batches_.front().objects_total) {
        const std::size_t n = batches_.front().item_count;
        assert(pending_times_.size() >= n);
        for (std::size_t i = 0; i < n; ++i) {
          stats_.commit_latency_us.Record(
              static_cast<double>(now - pending_times_.front()));
          pending_times_.pop_front();
        }
        completed += n;
        // The recoverable WAL frontier advances only with the consecutive
        // prefix of *successfully* acknowledged batches.
        if (!frontier_broken_.load() &&
            batches_.front().max_lsn > frontier_lsn_.load()) {
          frontier_lsn_.store(batches_.front().max_lsn,
                              std::memory_order_release);
          advanced = true;
        }
        batches_.pop_front();
        stats_.batches_uploaded.Add();
      }
      oldest_pending_us_.store(
          pending_times_.empty() ? kNoOldest : pending_times_.front(),
          std::memory_order_release);
    }
    if (completed > 0) {
      completed_count_.fetch_add(completed, std::memory_order_release);
    }
    if (ack->trace_seq != kNoTrace && Tracing()) {
      tracer_->Record(TraceStage::kAck, ack->trace_seq, ack->put_end_us,
                      now >= ack->put_end_us ? now - ack->put_end_us : 0);
      if (advanced) {
        tracer_->Record(TraceStage::kFrontier, ack->trace_seq, now, 0);
      }
    }
    // Empty critical section: orders the counter updates above before the
    // notify, so a Submit that just evaluated ShouldBlock under block_mu_
    // cannot miss this wakeup.
    {
      std::lock_guard<std::mutex> lock(block_mu_);
    }
    unblock_cv_.notify_all();
    // Off-lock: the listener takes the checkpoint pipeline's mutex.
    if (advanced && frontier_listener_) frontier_listener_();
  }
}

}  // namespace ginja
