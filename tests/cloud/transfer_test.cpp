// TransferManager: bounded concurrency, retry/backoff on injected faults,
// fan-out deletes, and account-scoped cancellation (TransferAccount).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "cloud/transfer.h"

namespace ginja {
namespace {

Bytes B(const char* s) { return ToBytes(s); }

TransferOptions FastOptions(int concurrency = 4) {
  TransferOptions o;
  o.concurrency = concurrency;
  o.max_attempts = 10;
  o.backoff_initial_us = 200;  // real microseconds: tests use RealClock
  o.backoff_max_us = 2'000;
  return o;
}

// Forwards to an inner store while recording how many Gets overlap.
class TrackingStore : public ObjectStore {
 public:
  explicit TrackingStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}

  Result<Bytes> Get(std::string_view name) override {
    const int now = concurrent_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (peak < now && !peak_.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto result = inner_->Get(name);
    concurrent_.fetch_sub(1);
    return result;
  }
  Status Put(std::string_view name, ByteView data) override {
    return inner_->Put(name, data);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }

  int peak() const { return peak_.load(); }

 private:
  ObjectStorePtr inner_;
  std::atomic<int> concurrent_{0};
  std::atomic<int> peak_{0};
};

TEST(TransferManagerTest, PutGetDeleteRoundtrip) {
  auto store = std::make_shared<MemoryStore>();
  TransferManager manager(store, FastOptions());

  ASSERT_TRUE(manager.Put("a", B("alpha")).ok());
  auto got = manager.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("alpha"));

  ASSERT_TRUE(manager.DeleteAsync("a").get().ok());
  EXPECT_FALSE(store->Get("a").ok());

  EXPECT_EQ(manager.stats().gets.Get(), 1u);
  EXPECT_EQ(manager.stats().puts.Get(), 1u);
  EXPECT_EQ(manager.stats().deletes.Get(), 1u);
  EXPECT_EQ(manager.stats().bytes_uploaded.Get(), 5u);
  EXPECT_EQ(manager.stats().bytes_downloaded.Get(), 5u);
  EXPECT_EQ(manager.stats().failed_ops.Get(), 0u);
}

TEST(TransferManagerTest, RetriesInjectedTransientFailures) {
  auto memory = std::make_shared<MemoryStore>();
  ASSERT_TRUE(memory->Put("k", View(B("v"))).ok());
  auto faulty = std::make_shared<FaultyStore>(memory);
  TransferManager manager(faulty, FastOptions());

  faulty->FailNextOps(3);
  auto got = manager.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("v"));
  EXPECT_EQ(faulty->injected_failures(), 3u);
  EXPECT_EQ(manager.stats().retries.Get(), 3u);
  EXPECT_EQ(manager.stats().failed_ops.Get(), 0u);
}

TEST(TransferManagerTest, ExhaustedRetriesReturnLastError) {
  auto faulty =
      std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  TransferOptions options = FastOptions();
  options.max_attempts = 3;
  TransferManager manager(faulty, options);

  faulty->SetAvailable(false);
  Status st = manager.Put("k", B("v"));
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(manager.stats().retries.Get(), 2u);  // attempts - 1
  EXPECT_EQ(manager.stats().failed_ops.Get(), 1u);
  EXPECT_EQ(manager.stats().puts.Get(), 0u);
}

TEST(TransferManagerTest, NotFoundIsAnAnswerNotRetried) {
  auto store = std::make_shared<MemoryStore>();
  TransferManager manager(store, FastOptions());

  auto got = manager.Get("missing");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(manager.stats().retries.Get(), 0u);
  EXPECT_EQ(manager.stats().failed_ops.Get(), 1u);
}

TEST(TransferManagerTest, BackoffGrowsExponentially) {
  auto memory = std::make_shared<MemoryStore>();
  ASSERT_TRUE(memory->Put("k", View(B("v"))).ok());
  auto faulty = std::make_shared<FaultyStore>(memory);
  TransferOptions options = FastOptions();
  options.backoff_initial_us = 10'000;
  options.backoff_max_us = 1'000'000;
  options.backoff_jitter = 0.0;
  TransferManager manager(faulty, options);

  faulty->FailNextOps(3);  // sleeps: 10ms + 20ms + 40ms = 70ms
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(manager.Get("k").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 60);
}

TEST(TransferManagerTest, ConcurrencyIsBounded) {
  auto memory = std::make_shared<MemoryStore>();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(memory->Put("obj" + std::to_string(i), View(B("x"))).ok());
  }
  auto tracking = std::make_shared<TrackingStore>(memory);
  TransferManager manager(tracking, FastOptions(/*concurrency=*/4));

  std::vector<std::future<Result<Bytes>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(manager.GetAsync("obj" + std::to_string(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  EXPECT_LE(tracking->peak(), 4);
  EXPECT_GE(tracking->peak(), 2);  // the window genuinely overlapped
  EXPECT_LE(manager.stats().peak_inflight.load(), 4);
  EXPECT_EQ(manager.stats().gets.Get(), 16u);
}

TEST(TransferManagerTest, DeleteAllReportsPerName) {
  auto store = std::make_shared<MemoryStore>();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store->Put("gc" + std::to_string(i), View(B("x"))).ok());
  }
  TransferManager manager(store, FastOptions());

  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("gc" + std::to_string(i));
  auto statuses = manager.DeleteAll(names);
  ASSERT_EQ(statuses.size(), names.size());
  for (const auto& st : statuses) EXPECT_TRUE(st.ok());
  for (const auto& name : names) EXPECT_FALSE(store->Get(name).ok());
  EXPECT_EQ(manager.stats().deletes.Get(), 8u);
}

// Blocks every Put until Release(); counts the Puts that entered.
class GatedStore : public MemoryStore {
 public:
  Status Put(std::string_view name, ByteView data) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return MemoryStore::Put(name, data);
  }
  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

TEST(TransferAccountTest, CancelAbortsThatAccountsQueuedAndLaterOps) {
  auto memory = std::make_shared<MemoryStore>();
  ASSERT_TRUE(memory->Put("k", View(B("v"))).ok());
  auto tracking = std::make_shared<TrackingStore>(memory);
  TransferManager manager(tracking, FastOptions(/*concurrency=*/1));
  auto account = std::make_shared<TransferAccount>("a");
  const TransferRoute route{nullptr, account};

  std::vector<std::future<Result<Bytes>>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(manager.GetAsync(route, "k"));
  account->Cancel();
  EXPECT_TRUE(account->cancelled());

  int aborted = 0;
  for (auto& f : futures) {
    auto result = f.get();  // must not hang
    if (!result.ok() && result.status().code() == ErrorCode::kAborted) {
      ++aborted;
    }
  }
  EXPECT_GE(aborted, 2);  // at most the in-flight ops could still land
  account->WaitIdle();    // futures resolve just before the account settles
  EXPECT_EQ(account->ops_failed() + account->ops_completed(), 4u);

  // Later submissions on the cancelled account fail without running.
  const std::uint64_t gets_before = manager.stats().gets.Get();
  auto late = manager.GetAsync(route, "k").get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), ErrorCode::kAborted);
  EXPECT_EQ(manager.stats().gets.Get(), gets_before);
}

TEST(TransferAccountTest, CancelInterruptsThatAccountsBackoffSleep) {
  auto faulty =
      std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  TransferOptions options = FastOptions(1);
  options.backoff_initial_us = 60'000'000;  // would sleep a minute
  options.backoff_max_us = 60'000'000;
  options.max_attempts = 5;
  TransferManager manager(faulty, options);
  auto account = std::make_shared<TransferAccount>("a");

  faulty->SetAvailable(false);
  auto future = manager.PutAsync({nullptr, account}, "k", B("v"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  account->Cancel();
  Status st = future.get();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(st.code(), ErrorCode::kAborted);
  EXPECT_LT(elapsed.count(), 10'000);  // not the full backoff
  account->WaitIdle();
  EXPECT_EQ(account->ops_failed(), 1u);
}

// One account stuck in (then cancelled out of) a backoff sleep on its own
// store route does not stop a second account on the same manager.
TEST(TransferAccountTest, OtherAccountKeepsCompletingOps) {
  auto memory = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  faulty->SetAvailable(false);
  TransferOptions options = FastOptions(/*concurrency=*/2);
  options.backoff_initial_us = 60'000'000;
  options.backoff_max_us = 60'000'000;
  TransferManager manager(memory, options);
  auto stuck = std::make_shared<TransferAccount>("stuck");
  auto healthy = std::make_shared<TransferAccount>("healthy");

  auto stuck_put = manager.PutAsync({faulty, stuck}, "s", B("x"));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        manager.PutAsync({nullptr, healthy}, "h" + std::to_string(i), B("yy"))
            .get()
            .ok());
  }
  EXPECT_EQ(stuck_put.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  stuck->Cancel();
  EXPECT_EQ(stuck_put.get().code(), ErrorCode::kAborted);
  EXPECT_FALSE(healthy->cancelled());
  ASSERT_TRUE(manager.PutAsync({nullptr, healthy}, "h8", B("yy")).get().ok());
  EXPECT_TRUE(manager.DeleteAll({nullptr, healthy}, {"h0", "h1"})[1].ok());
  healthy->WaitIdle();
  stuck->WaitIdle();

  EXPECT_EQ(healthy->ops_completed(), 11u);
  EXPECT_EQ(healthy->ops_failed(), 0u);
  EXPECT_EQ(healthy->bytes_uploaded(), 18u);
  EXPECT_EQ(stuck->ops_completed(), 0u);
  EXPECT_EQ(stuck->ops_failed(), 1u);
  EXPECT_TRUE(memory->Get("h8").ok());
  EXPECT_FALSE(memory->Get("h0").ok());
}

TEST(TransferAccountTest, WaitIdleReturnsOnceInFlightOpsSettle) {
  auto gated = std::make_shared<GatedStore>();
  TransferManager manager(gated, FastOptions(/*concurrency=*/2));
  auto account = std::make_shared<TransferAccount>("a");

  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(
        manager.PutAsync({nullptr, account}, "k" + std::to_string(i), B("v")));
  }
  gated->WaitEntered(2);  // two executing, one queued

  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    account->WaitIdle();
    idle.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(idle.load());
  EXPECT_EQ(account->ops_completed(), 0u);

  gated->Release();
  waiter.join();
  EXPECT_TRUE(idle.load());
  // WaitIdle returned only after every op settled its account.
  EXPECT_EQ(account->ops_completed(), 3u);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

}  // namespace
}  // namespace ginja
