#include "ginja/ginja.h"

#include <algorithm>
#include <deque>
#include <future>
#include <map>

#include "db/wal.h"
#include "ginja/fleet_runtime.h"
#include "ginja/payload.h"
#include "obs/log.h"

namespace ginja {

Ginja::Ginja(VfsPtr local_vfs, ObjectStorePtr store,
             std::shared_ptr<Clock> clock, DbLayout layout, GinjaConfig config)
    : local_vfs_(std::move(local_vfs)),
      store_(std::move(store)),
      clock_(std::move(clock)),
      layout_(layout),
      config_(config),
      view_(std::make_shared<CloudView>()),
      retention_(std::make_shared<RetentionPolicy>()),
      chunk_index_(std::make_shared<ChunkIndex>()),
      envelope_(std::make_shared<Envelope>(config.envelope)) {
  // Every Ginja carries an observability bundle: metrics gauges and stage
  // histograms are always reachable via observability(), with the tracer
  // enabled only when the caller's TraceOptions say so. A fleet member
  // defaults to the runtime's shared bundle (one registry for the fleet,
  // per-tenant series split by the tenant label).
  if (!config_.obs) {
    config_.obs = config_.runtime ? config_.runtime->obs()
                                  : std::make_shared<Observability>(config_.trace);
  }
  envelope_->SetCodecPool(CodecPoolFor(config_));
  commits_ = std::make_unique<CommitPipeline>(store_, view_, clock_, config_,
                                              envelope_);
  checkpoints_ = std::make_unique<CheckpointPipeline>(
      store_, view_, clock_, config_, envelope_, local_vfs_, layout_);
  checkpoints_->SetRetentionPolicy(retention_);
  checkpoints_->SetChunkIndex(chunk_index_);
  checkpoints_->SetWalFrontierFn(
      [this] { return commits_->UploadedWalFrontier(); });
  // Frontier advances wake the checkpointer's WAL-coverage wait directly
  // instead of the old 1 ms poll.
  commits_->SetFrontierListener([this] { checkpoints_->NotifyFrontier(); });
  processor_ = std::make_unique<DbIoProcessor>(layout_, commits_.get(),
                                               checkpoints_.get());
  config_.obs->registry.RegisterGauge(
      this, "ginja_unclassified_events", TenantLabels(config_),
      [this] { return static_cast<double>(processor_->unclassified_events()); });
}

Ginja::~Ginja() {
  config_.obs->registry.Unregister(this);
  if (started_ && !stopped_) Kill();
}

Status Ginja::Boot() {
  // A config whose zero knobs would hang the pipelines is rejected here,
  // before any pipeline thread starts.
  GINJA_RETURN_IF_ERROR(ValidateGinjaConfig(config_));
  // One WAL object per local WAL segment, in segment order (Alg. 1 l. 9–13).
  auto files = local_vfs_->ListFiles("");
  if (!files.ok()) return files.status();

  // The WAL end at boot bounds every boot object's max_lsn: nothing past
  // it was written yet. The control block's hint is only refreshed at
  // checkpoints, so scan from the newest checkpoint to the true end, as
  // the engine's own redo does. A bound past the end would let checkpoint
  // GC delete the later WAL objects while keeping the boot object, and
  // recovery would stop at the resulting ts gap.
  Lsn redo_start = 0;
  std::uint64_t newest_counter = 0;
  for (int slot = 0; slot < layout_.ControlSlotCount(); ++slot) {
    auto bytes = local_vfs_->Read(layout_.ControlFileName(),
                                  layout_.ControlOffset(slot),
                                  ControlBlock::kEncodedSize);
    if (!bytes.ok()) continue;
    ControlBlock block;
    if (ControlBlock::Decode(bytes->data(), bytes->size(), &block) &&
        block.counter >= newest_counter) {
      newest_counter = block.counter;
      redo_start = block.checkpoint_lsn;
    }
  }
  auto scanned_end = WalReader(local_vfs_, layout_)
                         .Replay(redo_start, [](const WalRecord&) {});
  if (!scanned_end.ok()) return scanned_end.status();
  const Lsn wal_end = *scanned_end;

  std::vector<std::string> wal_files;
  for (const auto& path : *files) {
    if (layout_.Classify(path, layout_.wal_header_pages * layout_.wal_page_size) ==
        FileKind::kWalSegment) {
      wal_files.push_back(path);
    }
  }
  std::sort(wal_files.begin(), wal_files.end());

  for (const auto& path : wal_files) {
    auto content = local_vfs_->ReadAll(path);
    if (!content.ok()) return content.status();

    WalObjectId id;
    id.ts = view_->NextWalTs();
    id.filename = path;
    id.offset = 0;
    // Circular-log segments have internal LSN ranges Boot cannot cheaply
    // order; the WAL end is their conservative bound.
    id.max_lsn = wal_end;
    if (layout_.flavor == DbFlavor::kPostgres) {
      // Segment i covers stream bytes < (i+1) segments' worth of payload.
      // Segment order is lexicographic order for our generated names.
      const std::uint64_t seg_index =
          static_cast<std::uint64_t>(&path - wal_files.data());
      id.max_lsn = std::min<Lsn>(wal_end, (seg_index + 1) *
                                              layout_.PagesPerSegment() *
                                              layout_.WalPayloadSize());
    }

    std::vector<FileEntry> entries;
    entries.push_back({path, 0, std::move(*content)});
    const Bytes payload = EncodeEntries(entries);
    const Bytes enveloped = envelope_->Encode(View(payload), id.ts);
    GINJA_RETURN_IF_ERROR(store_->Put(id.Encode(), View(enveloped)));
    view_->AddWal(id);
  }

  // One dump DB object (Alg. 1 lines 14–18) — split at the size limit.
  checkpoints_->OnCheckpointBegin();
  checkpoints_->OnCheckpointEnd(/*redo_lsn=*/0);
  checkpoints_->Start();
  checkpoints_->Drain();  // the dump is durable before the DBMS may start
  commits_->Start();
  started_ = true;
  return Status::Ok();
}

Status Ginja::Reboot() {
  GINJA_RETURN_IF_ERROR(ValidateGinjaConfig(config_));
  auto objects = store_->List("");
  if (!objects.ok()) return objects.status();
  view_->Clear();
  for (const auto& meta : *objects) view_->AddFromName(meta.name);
  // Delta dumps: the chunk inventory (presence from CHUNK/ names,
  // references from the visible manifests) must be rebuilt before the
  // first dump decides what to skip — otherwise everything re-uploads.
  if (config_.dedup_dumps) {
    GINJA_RETURN_IF_ERROR(
        RebuildChunkIndex(*store_, *envelope_, *objects, chunk_index_.get()));
  }
  checkpoints_->Start();
  commits_->Start();
  started_ = true;
  return Status::Ok();
}

void Ginja::OnFileEvent(const FileEvent& event) {
  if (!started_ || stopped_) return;
  processor_->OnFileEvent(event);
}

void Ginja::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  commits_->Stop();
  checkpoints_->Stop();
}

void Ginja::Kill() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  commits_->Kill();
  checkpoints_->Kill();
}

void Ginja::Drain() {
  commits_->Drain();
  checkpoints_->Drain();
}

std::optional<std::uint64_t> Ginja::ProtectCurrentState() {
  Drain();  // the point must be fully durable in the cloud
  const auto ts = view_->LastAssignedWalTs();
  if (ts) retention_->Protect(*ts);
  return ts;
}

Status Ginja::Recover(ObjectStorePtr store, const GinjaConfig& config,
                      const DbLayout& layout, VfsPtr target,
                      RecoveryReport* report,
                      std::optional<std::uint64_t> up_to_ts,
                      std::shared_ptr<Clock> clock) {
  (void)layout;
  RecoveryReport local_report;
  RecoveryReport& r = report ? *report : local_report;
  const std::uint64_t started_at = clock ? clock->NowMicros() : 0;

  Envelope envelope(config.envelope);
  envelope.SetCodecPool(CodecPoolFor(config));

  auto objects = store->List("");
  if (!objects.ok()) return objects.status();

  // The whole download schedule is computable before the first GET: DB
  // object names carry their redo LSN and part counts, WAL names their ts
  // and covered range. That is what makes windowed prefetch safe — the
  // plan is exactly the serial loop's visit order, so a K-deep window
  // changes *when* bytes arrive but never *what* is applied. The plan
  // builder and the windowed apply loop live in tail_apply.* and are
  // shared with the warm StandbyReplica (tailing) and the point-in-time
  // path (`up_to_ts` opens the same plan at an arbitrary frontier).
  TailPlan plan = BuildTailPlan(*objects, up_to_ts);
  r.found_dump = plan.found_dump;

  // GETs route to this tenant's (namespaced) store and bill a per-recovery
  // account; in a fleet, N concurrent recoveries share one global
  // in-flight window.
  const TransferBinding transfers =
      BindTransfers(config, store, clock, config.recovery_prefetch, "recovery");
  TailApplyContext ctx;
  ctx.transfers = transfers.manager.get();
  ctx.route = transfers.route;
  ctx.envelope = &envelope;
  ctx.target = target;
  // Fetch/apply spans need timestamps; without a clock recovery runs
  // untraced (the registry gauges above still work).
  ctx.clock = clock;
  ctx.tracer = config.obs ? &config.obs->tracer : nullptr;
  ctx.window = static_cast<std::size_t>(std::max(1, config.recovery_prefetch));
  TailApplyResult applied = ApplyTailPlan(plan.items, ctx, &r);
  if (!applied.db_failure.ok()) return applied.db_failure;
  if (plan.gap_after_plan && !applied.wal_truncated) r.gap_detected = true;

  if (clock) r.duration_micros = clock->NowMicros() - started_at;
  if (r.gap_detected) {
    // Recovery still succeeded, but the tail past the gap is lost — that's
    // the bounded S-write loss made concrete, so it gets a record.
    Log(LogLevel::kWarn, "recovery", "WAL tail truncated at a ts gap",
        {{"recovered_to_ts", r.recovered_to_ts},
         {"wal_objects_applied", r.wal_objects_applied}});
  }
  Log(LogLevel::kInfo, "recovery", "recovery complete",
      {{"objects", r.objects_downloaded},
       {"bytes", r.bytes_downloaded},
       {"wal_applied", r.wal_objects_applied},
       {"db_applied", r.db_objects_applied},
       {"duration_us", r.duration_micros}});
  return Status::Ok();
}

}  // namespace ginja
