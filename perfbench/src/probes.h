// Outside-in probes for the traced run.
//
// Every span comes from the benchmark's own code, around a call into one
// layer of the stack: a Vfs decorator above and one below InterceptFs, a
// listener wrapper around Ginja::OnFileEvent, an ObjectStore decorator in
// front of the cloud, an HttpTransport decorator in front of the S3 socket
// client. Untraced runs do not install the probes at all, so end-to-end
// metrics are measured on the bare stack.
//
// Spans are kept in per-thread buffers and merged when the run ends. A span
// records the span open on the same thread when it began (its parent) and
// the transaction the thread was executing, so a txn's fs and ginja spans
// share its id; cloud spans on background threads carry their cause,
// derived from the object name (WAL/ → commit pipeline, DB/ and CHUNK/ →
// checkpoint pipeline).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/s3/http.h"
#include "db/layout.h"
#include "fs/intercept_fs.h"
#include "fs/vfs.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kTxn,          // workload: one TpccWorkload::Execute
  kCheckpoint,   // db: one Database::Checkpoint issued by the workload
  kFsAbove,      // fs: a write as the engine issues it, above InterceptFs
  kFsLocal,      // fs: the same write reaching the local file system
  kGinjaEvent,   // ginja: Ginja::OnFileEvent, stalls included
  kCloudPut,     // cloud: ObjectStore calls made by Ginja / the pipeline
  kCloudGet,
  kCloudList,
  kCloudDelete,
  kS3Request,    // cloud/s3: client-side HTTP round trip (SigV4 + TCP)
  kS3Backend,    // cloud/s3: the backend call S3Server makes
  kRecover,      // ginja: one Ginja::Recover
  kRedo,         // db: Database::Open redo after recovery
};
const char* LayerName(Layer layer);

enum class Cause : std::uint8_t { kNone, kCommit, kCheckpoint, kMeta };
const char* CauseName(Cause cause);
Cause CauseOf(std::string_view object_name);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::uint64_t txn = 0;     // 0 = outside any transaction
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;
  std::uint32_t inflight = 0;  // cloud spans: same-kind calls in flight
  Layer layer = Layer::kTxn;
  Cause cause = Cause::kNone;
  bool failed = false;
};

std::uint64_t NowNs();

// Collects spans from every thread. One instance is active per traced run;
// probes and ScopedSpan record into it and do nothing when none is active.
class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  static SpanRecorder* Active() {
    return active_.load(std::memory_order_acquire);
  }
  void Activate() { active_.store(this, std::memory_order_release); }
  void Deactivate() { active_.store(nullptr, std::memory_order_release); }

  std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(const Span& span);

  // Every recorded span; call after the recording threads are quiet.
  std::vector<Span> Collect() const;

  // Writes spans as tab-separated lines (one header line first).
  bool WriteTsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  static std::atomic<SpanRecorder*> active_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t generation_;
};

// Marks the calling thread as executing transaction `txn` (0 = none).
void SetCurrentTxn(std::uint64_t txn);

// RAII span on the calling thread; a no-op when no recorder is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint64_t bytes = 0,
                      Cause cause = Cause::kNone);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_failed(bool failed) { span_.failed = failed; }
  void set_inflight(std::uint32_t n) { span_.inflight = n; }

 private:
  SpanRecorder* recorder_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

// Vfs decorator spanning every mutation (write, truncate, remove) at `layer`.
class TimedVfs : public ginja::Vfs {
 public:
  TimedVfs(ginja::VfsPtr inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  ginja::Status Write(std::string_view path, std::uint64_t offset,
                      ginja::ByteView data, bool sync) override;
  ginja::Result<ginja::Bytes> Read(std::string_view path, std::uint64_t offset,
                                   std::uint64_t size) override {
    return inner_->Read(path, offset, size);
  }
  ginja::Result<ginja::Bytes> ReadAll(std::string_view path) override {
    return inner_->ReadAll(path);
  }
  ginja::Result<std::uint64_t> FileSize(std::string_view path) override {
    return inner_->FileSize(path);
  }
  bool Exists(std::string_view path) override { return inner_->Exists(path); }
  ginja::Status Truncate(std::string_view path, std::uint64_t size) override;
  ginja::Status Remove(std::string_view path) override;
  ginja::Result<std::vector<std::string>> ListFiles(
      std::string_view prefix) override {
    return inner_->ListFiles(prefix);
  }

 private:
  ginja::VfsPtr inner_;
  Layer layer_;
};

// Listener wrapper: spans Ginja::OnFileEvent, including any S/TS stall.
// WAL-segment events carry cause kCommit, all others kCheckpoint.
class TimedListener : public ginja::FileEventListener {
 public:
  TimedListener(ginja::FileEventListener* inner, ginja::DbLayout layout)
      : inner_(inner), layout_(std::move(layout)) {}
  void OnFileEvent(const ginja::FileEvent& event) override;

 private:
  ginja::FileEventListener* inner_;
  ginja::DbLayout layout_;
};

// ObjectStore decorator spanning every call at the cloud layer; with
// `backend` set, every call is a kS3Backend span instead (the store that
// S3Server serves from).
class TimedStore : public ginja::ObjectStore {
 public:
  explicit TimedStore(ginja::ObjectStorePtr inner, bool backend = false)
      : inner_(std::move(inner)), backend_(backend) {}

  ginja::Status Put(std::string_view name, ginja::ByteView data) override;
  ginja::Result<ginja::Bytes> Get(std::string_view name) override;
  ginja::Result<std::vector<ginja::ObjectMeta>> List(
      std::string_view prefix) override;
  ginja::Result<std::vector<ginja::ObjectMeta>> List(
      std::string_view prefix, std::string_view start_after) override;
  ginja::Status Delete(std::string_view name) override;

 private:
  Layer LayerFor(Layer cloud_layer) const {
    return backend_ ? Layer::kS3Backend : cloud_layer;
  }

  ginja::ObjectStorePtr inner_;
  bool backend_;
  std::atomic<std::uint32_t> puts_inflight_{0};
  std::atomic<std::uint32_t> gets_inflight_{0};
};

// HttpTransport decorator spanning each client-side S3 round trip.
class TimedTransport : public ginja::HttpTransport {
 public:
  explicit TimedTransport(std::shared_ptr<ginja::HttpTransport> inner)
      : inner_(std::move(inner)) {}
  ginja::Result<ginja::HttpResponse> RoundTrip(
      const ginja::HttpRequest& request) override;

 private:
  std::shared_ptr<ginja::HttpTransport> inner_;
};

// Process CPU time (all threads), seconds.
double ProcessCpuSeconds();

// -- span analysis ------------------------------------------------------------

// Spans of one layer.
std::vector<const Span*> OfLayer(const std::vector<Span>& spans, Layer layer);
// Durations (ns → us) of the given spans.
std::vector<double> DurationsUs(const std::vector<const Span*>& spans);
// Self time (us) of each span of `parent_layer`: its duration minus the
// union of its direct children of any layer in `child_layers`.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans,
                                Layer parent_layer,
                                const std::vector<Layer>& child_layers);
// Sum of durations in microseconds.
double SumUs(const std::vector<const Span*>& spans);
// Fraction of [begin_ns, end_ns) × `servers` that the spans occupy.
double BusyFraction(const std::vector<const Span*>& spans,
                    std::uint64_t begin_ns, std::uint64_t end_ns, int servers);

}  // namespace perfbench
