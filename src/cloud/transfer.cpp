#include "cloud/transfer.h"

#include <algorithm>

#include "obs/log.h"

namespace ginja {

namespace {

// Slice length for cancellable backoff sleeps (model time).
constexpr std::uint64_t kSleepSliceUs = 20'000;

}  // namespace

std::uint64_t RetryPolicy::NextBackoffUs(int attempt) {
  if (retries_) retries_->Add();
  double backoff = static_cast<double>(options_.backoff_initial_us);
  for (int i = 1; i < attempt; ++i) {
    backoff *= options_.backoff_multiplier;
    if (backoff >= static_cast<double>(options_.backoff_max_us)) break;
  }
  backoff = std::min(backoff, static_cast<double>(options_.backoff_max_us));
  if (options_.backoff_jitter > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    backoff *= 1.0 + options_.backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
  }
  return static_cast<std::uint64_t>(backoff);
}

TransferManager::TransferManager(ObjectStorePtr store, TransferOptions options,
                                 std::shared_ptr<Clock> clock)
    : store_(std::move(store)),
      options_(options),
      clock_(clock ? std::move(clock) : std::make_shared<RealClock>()),
      retry_(options, &stats_.retries) {
  options_.concurrency = std::max(1, options_.concurrency);
  options_.max_attempts = std::max(1, options_.max_attempts);
  workers_.reserve(static_cast<std::size_t>(options_.concurrency));
  for (int i = 0; i < options_.concurrency; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TransferManager::~TransferManager() {
  if (registry_) registry_->Unregister(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Fail whatever is still queued (only possible when futures were dropped
  // mid-shutdown).
  for (auto& op : queue_) Fail(op, Status::Aborted("transfer manager destroyed"));
}

void TransferManager::RegisterMetrics(MetricsRegistry* registry,
                                      std::string component) {
  if (registry_) registry_->Unregister(this);
  registry_ = registry;
  if (!registry_) return;
  const MetricLabels labels = {{"component", std::move(component)}};
  registry_->RegisterCounter(this, "ginja_transfer_gets_total", labels,
                             &stats_.gets);
  registry_->RegisterCounter(this, "ginja_transfer_puts_total", labels,
                             &stats_.puts);
  registry_->RegisterCounter(this, "ginja_transfer_deletes_total", labels,
                             &stats_.deletes);
  registry_->RegisterCounter(this, "ginja_transfer_retries_total", labels,
                             &stats_.retries);
  registry_->RegisterCounter(this, "ginja_transfer_failed_ops_total", labels,
                             &stats_.failed_ops);
  registry_->RegisterCounter(this, "ginja_transfer_bytes_downloaded_total",
                             labels, &stats_.bytes_downloaded);
  registry_->RegisterCounter(this, "ginja_transfer_bytes_uploaded_total",
                             labels, &stats_.bytes_uploaded);
  registry_->RegisterHistogram(this, "ginja_transfer_get_latency_us", labels,
                               &stats_.get_latency_us);
  registry_->RegisterHistogram(this, "ginja_transfer_put_latency_us", labels,
                               &stats_.put_latency_us);
  registry_->RegisterHistogram(this, "ginja_transfer_delete_latency_us",
                               labels, &stats_.delete_latency_us);
  registry_->RegisterGauge(this, "ginja_transfer_inflight", labels, [this] {
    return static_cast<double>(stats_.inflight.load(std::memory_order_relaxed));
  });
  registry_->RegisterGauge(this, "ginja_transfer_peak_inflight", labels,
                           [this] {
                             return static_cast<double>(stats_.peak_inflight.load(
                                 std::memory_order_relaxed));
                           });
}

void TransferManager::Fail(Op& op, const Status& status) {
  if (op.kind == Op::Kind::kGet) {
    op.get_result.set_value(Result<Bytes>(status));
  } else {
    op.status_result.set_value(status);
  }
  if (op.account) op.account->OnDone(status, 0);
}

bool TransferManager::Enqueue(Op op) {
  // The account sees the op as pending from before the queue decision, so
  // WaitIdle cannot miss it; both outcomes (queued-then-executed, failed
  // here) settle it exactly once.
  if (op.account) op.account->OnEnqueue();
  if (!op.account || !op.account->cancelled()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push_back(std::move(op));
      cv_.notify_one();
      return true;
    }
  }
  Fail(op, Status::Aborted("transfer cancelled"));
  return false;
}

std::future<Result<Bytes>> TransferManager::GetAsync(TransferRoute route,
                                                     std::string name) {
  Op op;
  op.kind = Op::Kind::kGet;
  op.name = std::move(name);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.get_result.get_future();
  Enqueue(std::move(op));
  return future;
}

std::future<Status> TransferManager::PutAsync(TransferRoute route,
                                              std::string name, Bytes data) {
  Op op;
  op.kind = Op::Kind::kPut;
  op.name = std::move(name);
  op.data = std::move(data);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.status_result.get_future();
  Enqueue(std::move(op));
  return future;
}

std::future<Status> TransferManager::DeleteAsync(TransferRoute route,
                                                 std::string name) {
  Op op;
  op.kind = Op::Kind::kDelete;
  op.name = std::move(name);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.status_result.get_future();
  Enqueue(std::move(op));
  return future;
}

std::vector<Status> TransferManager::DeleteAll(
    TransferRoute route, const std::vector<std::string>& names) {
  std::vector<std::future<Status>> futures;
  futures.reserve(names.size());
  for (const auto& name : names) futures.push_back(DeleteAsync(route, name));
  std::vector<Status> statuses;
  statuses.reserve(names.size());
  for (auto& f : futures) statuses.push_back(f.get());
  return statuses;
}

bool TransferManager::BackoffSleep(std::uint64_t micros,
                                   const TransferAccount* account) {
  while (micros > 0) {
    if (account && account->cancelled()) return false;
    const std::uint64_t slice = std::min(micros, kSleepSliceUs);
    clock_->SleepMicros(slice);
    micros -= slice;
  }
  return !(account && account->cancelled());
}

void TransferManager::WorkerLoop() {
  while (true) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    if (op.account && op.account->cancelled()) {
      Fail(op, Status::Aborted("transfer account cancelled"));
      continue;
    }
    const int now_inflight =
        stats_.inflight.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = stats_.peak_inflight.load(std::memory_order_relaxed);
    while (peak < now_inflight &&
           !stats_.peak_inflight.compare_exchange_weak(
               peak, now_inflight, std::memory_order_relaxed)) {
    }
    Execute(op);
    stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TransferManager::Execute(Op& op) {
  const std::uint64_t started = clock_->NowMicros();
  // The op's route may override the manager's store (a fleet tenant's
  // namespaced stack); the worker pool, retry policy, and in-flight
  // window stay shared either way.
  ObjectStore* store = op.store ? op.store.get() : store_.get();
  Status last(ErrorCode::kUnavailable, "not attempted");
  for (int attempt = 1;; ++attempt) {
    switch (op.kind) {
      case Op::Kind::kGet: {
        auto blob = store->Get(op.name);
        if (blob.ok()) {
          stats_.gets.Add();
          stats_.bytes_downloaded.Add(blob->size());
          stats_.get_latency_us.Record(
              static_cast<double>(clock_->NowMicros() - started));
          op.get_result.set_value(std::move(blob));
          if (op.account) op.account->OnDone(Status::Ok(), 0);
          return;
        }
        last = blob.status();
        break;
      }
      case Op::Kind::kPut: {
        Status st = store->Put(op.name, View(op.data));
        if (st.ok()) {
          stats_.puts.Add();
          stats_.bytes_uploaded.Add(op.data.size());
          stats_.put_latency_us.Record(
              static_cast<double>(clock_->NowMicros() - started));
          op.status_result.set_value(st);
          if (op.account) op.account->OnDone(st, op.data.size());
          return;
        }
        last = st;
        break;
      }
      case Op::Kind::kDelete: {
        Status st = store->Delete(op.name);
        if (st.ok()) {
          stats_.deletes.Add();
          stats_.delete_latency_us.Record(
              static_cast<double>(clock_->NowMicros() - started));
          op.status_result.set_value(st);
          if (op.account) op.account->OnDone(st, 0);
          return;
        }
        last = st;
        break;
      }
    }
    if (!RetryPolicy::Retryable(last.code()) ||
        attempt >= options_.max_attempts ||
        (op.account && op.account->cancelled())) {
      break;
    }
    if (!BackoffSleep(retry_.NextBackoffUs(attempt), op.account.get())) {
      last = Status::Aborted("transfer cancelled");
      break;
    }
  }
  stats_.failed_ops.Add();
  // Cancellation is an orderly shutdown, not an anomaly worth a record.
  if (last.code() != ErrorCode::kAborted) {
    Log(LogLevel::kWarn, "transfer", "operation permanently failed",
        {{"object", op.name}, {"status", last.ToString()}});
  }
  Fail(op, last);
}

}  // namespace ginja
