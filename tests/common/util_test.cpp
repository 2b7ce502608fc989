#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/mpsc_queue.h"
#include "common/rng.h"
#include "common/stats.h"

namespace ginja {
namespace {

// -- BlockingQueue --------------------------------------------------------------

TEST(BlockingQueue, PutTakeFifo) {
  BlockingQueue<int> q;
  q.Put(1);
  q.Put(2);
  q.Put(3);
  EXPECT_EQ(q.Take(), 1);
  EXPECT_EQ(q.Take(), 2);
  EXPECT_EQ(q.Take(), 3);
}

TEST(BlockingQueue, CapacityBlocksPut) {
  BlockingQueue<int> q(2);
  q.Put(1);
  q.Put(2);
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    q.Put(3);
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_done.load());
  EXPECT_EQ(q.Take(), 1);
  producer.join();
  EXPECT_TRUE(third_done.load());
}

TEST(BlockingQueue, CloseUnblocksTakers) {
  BlockingQueue<int> q;
  std::optional<int> got = std::nullopt;
  std::thread consumer([&] { got = q.Take(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.Put(7);
  q.Close();
  EXPECT_EQ(q.Take(), 7);
  EXPECT_FALSE(q.Take().has_value());
  EXPECT_FALSE(q.Put(8));
}

TEST(BlockingQueue, PeekBatchDoesNotRemove) {
  BlockingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.Put(i);
  auto batch = q.PeekBatch(3);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.Size(), 5u);
  q.PopN(3);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.Take(), 3);
}

TEST(BlockingQueue, TakeForTimesOut) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TakeFor(5'000).has_value());
  q.Put(9);
  EXPECT_EQ(q.TakeFor(5'000), 9);
}

TEST(BlockingQueue, ForcePutIgnoresCapacity) {
  BlockingQueue<int> q(1);
  q.Put(1);
  EXPECT_TRUE(q.ForcePut(2));
  EXPECT_EQ(q.Size(), 2u);
}

// -- Clock ------------------------------------------------------------------------

// -- MpscRing -------------------------------------------------------------------

TEST(MpscRing, FullRingRejectsAndLeavesItemUnmoved) {
  MpscRing<std::unique_ptr<int>> ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto item = std::make_unique<int>(i);
    std::size_t pos = 99;
    ASSERT_TRUE(ring.TryPush(item, &pos));
    EXPECT_EQ(pos, static_cast<std::size_t>(i));
    EXPECT_EQ(item, nullptr);  // moved into the ring
  }
  auto extra = std::make_unique<int>(42);
  EXPECT_FALSE(ring.TryPush(extra));
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 42);
  EXPECT_EQ(ring.Claimed(), 4u);

  // One pop frees one slot; the rejected item then goes in at position 4.
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(*out, 0);
  std::size_t pos = 0;
  ASSERT_TRUE(ring.TryPush(extra, &pos));
  EXPECT_EQ(pos, 4u);
  for (int want : {1, 2, 3, 42}) {
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(*out, want);
  }
  EXPECT_FALSE(ring.TryPop(out));
}

TEST(MpscRing, FifoAcrossWrapArounds) {
  MpscRing<std::uint64_t> ring(8);
  const std::size_t cap = ring.capacity();
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  // Uneven push/pop bursts walk the head and tail around the ring at
  // different phases, well past three full wraps.
  while (next_pop < 5 * cap + 3) {
    for (int k = 0; k < 5; ++k) {
      std::uint64_t item = next_push;
      std::size_t pos = 0;
      if (!ring.TryPush(item, &pos)) break;
      EXPECT_EQ(pos, next_push);
      ++next_push;
    }
    for (int k = 0; k < 3; ++k) {
      std::uint64_t out = 0;
      if (!ring.TryPop(out)) break;
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  std::uint64_t out = 0;
  while (ring.TryPop(out)) ASSERT_EQ(out, next_pop++);
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(ring.Claimed(), next_push);
}

// Eight producers race one consumer through a small ring (so producers
// keep hitting a full ring): every item pops exactly once, and each
// producer's items come out in the order it pushed them.
TEST(MpscRing, ConcurrentProducersPopExactlyOnceInProducerOrder) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 5'000;
  MpscRing<std::uint64_t> ring(64);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t item = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.TryPush(item)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    std::uint64_t item = 0;
    if (!ring.TryPop(item)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<std::size_t>(item >> 32);
    ASSERT_LT(p, next.size());
    // In order and exactly once: the next index this producer owes.
    ASSERT_EQ(item & 0xFFFFFFFFu, next[p]);
    ++next[p];
    ++popped;
  }
  for (auto& t : producers) t.join();
  std::uint64_t item = 0;
  EXPECT_FALSE(ring.TryPop(item));
  for (std::uint64_t n : next) EXPECT_EQ(n, kPerProducer);
  EXPECT_EQ(ring.Claimed(), kProducers * kPerProducer);
}

TEST(ManualClock, AdvanceWakesSleepers) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepMicros(100);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.Advance(99);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.Advance(1);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ScaledClock, ScaleShortensWallSleep) {
  ScaledClock clock(1000.0);  // 1000 model-us per wall-us
  const auto start = std::chrono::steady_clock::now();
  clock.SleepMicros(100'000);  // 100 model-ms -> 100 wall-us
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(wall, 50'000);
}

TEST(RealClock, MonotoneNow) {
  RealClock clock;
  const auto a = clock.NowMicros();
  const auto b = clock.NowMicros();
  EXPECT_LE(a, b);
}

// -- RNG ----------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, RangeBounds) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInRange(5, 15);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 15);
  }
}

TEST(Rng, NuRandInRange) {
  SplitMix64 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto v = NuRand(rng, 1023, 1, 3000, 259);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(Rng, GaussianRoughMoments) {
  SplitMix64 rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

// -- Stats ------------------------------------------------------------------------

TEST(Stats, MeterBasics) {
  Meter m;
  m.Record(1);
  m.Record(3);
  m.Record(5);
  EXPECT_EQ(m.Count(), 3u);
  EXPECT_DOUBLE_EQ(m.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(m.Min(), 1.0);
  EXPECT_DOUBLE_EQ(m.Max(), 5.0);
  m.Reset();
  EXPECT_EQ(m.Count(), 0u);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  // Geometric buckets: quantiles are approximate, within a bucket factor.
  EXPECT_GT(h.Quantile(0.5), 300);
  EXPECT_LT(h.Quantile(0.5), 900);
  EXPECT_GE(h.Quantile(0.99), 900);
}

TEST(Stats, CounterConcurrent) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Get(), 40000u);
}

TEST(Stats, HumanFormatting) {
  EXPECT_EQ(HumanCount(1500), "1.50k");
  EXPECT_EQ(HumanCount(2'500'000), "2.50M");
  EXPECT_EQ(HumanBytes(1024), "1.0kB");
  EXPECT_EQ(HumanBytes(10.5 * 1024 * 1024), "10.50MB");
}

}  // namespace
}  // namespace ginja
