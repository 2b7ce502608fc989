#include "probes.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>

#include "bench_stats.h"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{1};

struct ThreadState {
  std::uint64_t generation = 0;  // recorder the buffer belongs to
  void* buffer = nullptr;
  std::uint64_t current_span = 0;
  std::uint64_t txn = 0;
};
thread_local ThreadState t_state;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTxn: return "workload.txn";
    case Layer::kCheckpoint: return "db.checkpoint";
    case Layer::kFsAbove: return "fs.intercept";
    case Layer::kFsLocal: return "fs.local";
    case Layer::kGinjaEvent: return "ginja.event";
    case Layer::kCloudPut: return "cloud.put";
    case Layer::kCloudGet: return "cloud.get";
    case Layer::kCloudList: return "cloud.list";
    case Layer::kCloudDelete: return "cloud.delete";
    case Layer::kS3Request: return "s3.request";
    case Layer::kS3Backend: return "s3.backend";
    case Layer::kRecover: return "ginja.recover";
    case Layer::kRedo: return "db.redo";
  }
  return "?";
}

const char* CauseName(Cause cause) {
  switch (cause) {
    case Cause::kNone: return "-";
    case Cause::kCommit: return "commit_pipeline";
    case Cause::kCheckpoint: return "checkpoint_pipeline";
    case Cause::kMeta: return "ginja";
  }
  return "?";
}

Cause CauseOf(std::string_view name) {
  if (name.starts_with("WAL")) return Cause::kCommit;  // WAL/ and WALTAIL/
  if (name.starts_with("DB/") || name.starts_with("CHUNK/")) {
    return Cause::kCheckpoint;
  }
  return Cause::kMeta;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<SpanRecorder*> SpanRecorder::active_{nullptr};

SpanRecorder::SpanRecorder()
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::~SpanRecorder() {
  SpanRecorder* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

SpanRecorder::Buffer* SpanRecorder::ThreadBuffer() {
  if (t_state.generation != generation_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
    t_state.generation = generation_;
    t_state.buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_state.buffer);
}

void SpanRecorder::Record(const Span& span) {
  ThreadBuffer()->spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\ttxn\tlayer\tcause\tbegin_ns\tend_ns\tbytes\tinflight\tfailed\n";
  for (const Span& s : Collect()) {
    out << s.id << '\t' << s.parent << '\t' << s.txn << '\t'
        << LayerName(s.layer) << '\t' << CauseName(s.cause) << '\t'
        << s.begin_ns << '\t' << s.end_ns << '\t' << s.bytes << '\t'
        << s.inflight << '\t' << (s.failed ? 1 : 0) << '\n';
  }
  return static_cast<bool>(out);
}

void SetCurrentTxn(std::uint64_t txn) { t_state.txn = txn; }

ScopedSpan::ScopedSpan(Layer layer, std::uint64_t bytes, Cause cause)
    : recorder_(SpanRecorder::Active()) {
  if (recorder_ == nullptr) return;
  span_.id = recorder_->NextId();
  span_.parent = t_state.current_span;
  span_.txn = t_state.txn;
  span_.layer = layer;
  span_.bytes = bytes;
  span_.cause = cause;
  saved_parent_ = t_state.current_span;
  t_state.current_span = span_.id;
  span_.begin_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = NowNs();
  t_state.current_span = saved_parent_;
  recorder_->Record(span_);
}

ginja::Status TimedVfs::Write(std::string_view path, std::uint64_t offset,
                              ginja::ByteView data, bool sync) {
  ScopedSpan span(layer_, data.size());
  ginja::Status st = inner_->Write(path, offset, data, sync);
  span.set_failed(!st.ok());
  return st;
}

ginja::Status TimedVfs::Truncate(std::string_view path, std::uint64_t size) {
  ScopedSpan span(layer_);
  ginja::Status st = inner_->Truncate(path, size);
  span.set_failed(!st.ok());
  return st;
}

ginja::Status TimedVfs::Remove(std::string_view path) {
  ScopedSpan span(layer_);
  ginja::Status st = inner_->Remove(path);
  span.set_failed(!st.ok());
  return st;
}

void TimedListener::OnFileEvent(const ginja::FileEvent& event) {
  const bool wal = layout_.Classify(event.path, event.offset) ==
                   ginja::FileKind::kWalSegment;
  ScopedSpan span(Layer::kGinjaEvent, event.data.size(),
                  wal ? Cause::kCommit : Cause::kCheckpoint);
  inner_->OnFileEvent(event);
}

namespace {
// Counts a call in flight for the lifetime of the guard.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<std::uint32_t>& n)
      : n_(n), value_(n.fetch_add(1, std::memory_order_relaxed) + 1) {}
  ~InflightGuard() { n_.fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
  std::uint32_t value() const { return value_; }

 private:
  std::atomic<std::uint32_t>& n_;
  std::uint32_t value_;
};
}  // namespace

ginja::Status TimedStore::Put(std::string_view name, ginja::ByteView data) {
  InflightGuard inflight(puts_inflight_);
  ScopedSpan span(LayerFor(Layer::kCloudPut), data.size(), CauseOf(name));
  span.set_inflight(inflight.value());
  ginja::Status st = inner_->Put(name, data);
  span.set_failed(!st.ok());
  return st;
}

ginja::Result<ginja::Bytes> TimedStore::Get(std::string_view name) {
  InflightGuard inflight(gets_inflight_);
  ScopedSpan span(LayerFor(Layer::kCloudGet), 0, CauseOf(name));
  span.set_inflight(inflight.value());
  auto r = inner_->Get(name);
  span.set_failed(!r.ok());
  return r;
}

ginja::Result<std::vector<ginja::ObjectMeta>> TimedStore::List(
    std::string_view prefix) {
  ScopedSpan span(LayerFor(Layer::kCloudList), 0, CauseOf(prefix));
  auto r = inner_->List(prefix);
  span.set_failed(!r.ok());
  return r;
}

ginja::Result<std::vector<ginja::ObjectMeta>> TimedStore::List(
    std::string_view prefix, std::string_view start_after) {
  ScopedSpan span(LayerFor(Layer::kCloudList), 0, CauseOf(prefix));
  auto r = inner_->List(prefix, start_after);
  span.set_failed(!r.ok());
  return r;
}

ginja::Status TimedStore::Delete(std::string_view name) {
  ScopedSpan span(LayerFor(Layer::kCloudDelete), 0, CauseOf(name));
  ginja::Status st = inner_->Delete(name);
  span.set_failed(!st.ok());
  return st;
}

ginja::Result<ginja::HttpResponse> TimedTransport::RoundTrip(
    const ginja::HttpRequest& request) {
  ScopedSpan span(Layer::kS3Request, request.body.size());
  auto r = inner_->RoundTrip(request);
  span.set_failed(!r.ok() || r->status >= 300);
  return r;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::vector<const Span*> OfLayer(const std::vector<Span>& spans, Layer layer) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (s.layer == layer) out.push_back(&s);
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<const Span*>& spans) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span* s : spans) {
    out.push_back(static_cast<double>(s->end_ns - s->begin_ns) / 1e3);
  }
  return out;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans,
                                Layer parent_layer,
                                const std::vector<Layer>& child_layers) {
  // Spans are sorted by id and a child's id is larger than its parent's;
  // index parents by id, then hand each child to its parent.
  std::vector<std::size_t> parents;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer == parent_layer) parents.push_back(i);
  }
  std::vector<std::vector<Interval>> children(parents.size());
  auto parent_index = [&](std::uint64_t id) -> std::ptrdiff_t {
    auto it = std::lower_bound(
        parents.begin(), parents.end(), id,
        [&](std::size_t idx, std::uint64_t v) { return spans[idx].id < v; });
    if (it == parents.end() || spans[*it].id != id) return -1;
    return it - parents.begin();
  };
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    if (std::find(child_layers.begin(), child_layers.end(), s.layer) ==
        child_layers.end()) {
      continue;
    }
    const std::ptrdiff_t p = parent_index(s.parent);
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back({s.begin_ns, s.end_ns});
  }
  std::vector<double> out;
  out.reserve(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    const Span& p = spans[parents[i]];
    out.push_back(static_cast<double>(
                      SelfTime({p.begin_ns, p.end_ns}, std::move(children[i]))) /
                  1e3);
  }
  return out;
}

double SumUs(const std::vector<const Span*>& spans) {
  double total = 0;
  for (const Span* s : spans) total += static_cast<double>(s->end_ns - s->begin_ns);
  return total / 1e3;
}

double BusyFraction(const std::vector<const Span*>& spans,
                    std::uint64_t begin_ns, std::uint64_t end_ns, int servers) {
  if (end_ns <= begin_ns || servers <= 0) return 0;
  double busy = 0;
  for (const Span* s : spans) {
    const std::uint64_t b = std::max(s->begin_ns, begin_ns);
    const std::uint64_t e = std::min(s->end_ns, end_ns);
    if (e > b) busy += static_cast<double>(e - b);
  }
  return busy / (static_cast<double>(end_ns - begin_ns) * servers);
}

}  // namespace perfbench
