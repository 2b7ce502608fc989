#include <gtest/gtest.h>

#include <filesystem>

#include "cloud/disk_store.h"
#include "cloud/faulty_store.h"
#include "cloud/latency_model.h"
#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "cloud/replicated_store.h"
#include "cloud/s3/s3_client.h"
#include "cloud/s3/s3_server.h"

namespace ginja {
namespace {

Bytes B(const char* s) { return ToBytes(s); }

// Shared conformance suite run against both concrete backends.
class StoreConformance : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "memory") {
      store_ = std::make_shared<MemoryStore>();
    } else if (std::string(GetParam()) == "s3") {
      // Full wire path: SigV4-signed REST against the in-process server.
      auto server = std::make_shared<S3Server>(std::make_shared<MemoryStore>(),
                                               "conformance-bucket");
      store_ = std::make_shared<S3Client>(server, "conformance-bucket");
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("ginja_store_test_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir_);
      store_ = std::make_shared<DiskStore>(dir_);
    }
  }
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  ObjectStorePtr store_;
  std::filesystem::path dir_;
};

TEST_P(StoreConformance, PutGetRoundTrip) {
  ASSERT_TRUE(store_->Put("WAL/1_x_0", View(B("hello"))).ok());
  auto got = store_->Get("WAL/1_x_0");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("hello"));
}

TEST_P(StoreConformance, PutOverwrites) {
  ASSERT_TRUE(store_->Put("k", View(B("v1"))).ok());
  ASSERT_TRUE(store_->Put("k", View(B("v2"))).ok());
  EXPECT_EQ(*store_->Get("k"), B("v2"));
}

TEST_P(StoreConformance, GetMissingIsNotFound) {
  auto got = store_->Get("nope");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
}

TEST_P(StoreConformance, DeleteMissingSucceeds) {
  EXPECT_TRUE(store_->Delete("nope").ok());
}

TEST_P(StoreConformance, DeleteRemoves) {
  ASSERT_TRUE(store_->Put("k", View(B("v"))).ok());
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_FALSE(store_->Get("k").ok());
}

TEST_P(StoreConformance, ListPrefixSorted) {
  ASSERT_TRUE(store_->Put("DB/2_dump", View(B("d"))).ok());
  ASSERT_TRUE(store_->Put("WAL/10_a", View(B("aa"))).ok());
  ASSERT_TRUE(store_->Put("WAL/2_b", View(B("b"))).ok());
  auto list = store_->List("WAL/");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].name, "WAL/10_a");  // lexicographic
  EXPECT_EQ((*list)[0].size, 2u);
  EXPECT_EQ((*list)[1].name, "WAL/2_b");
  auto all = store_->List("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST_P(StoreConformance, EmptyObjectAllowed) {
  ASSERT_TRUE(store_->Put("empty", {}).ok());
  auto got = store_->Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST_P(StoreConformance, ListStartAfterCursor) {
  ASSERT_TRUE(store_->Put("WAL/0_a", View(B("a"))).ok());
  ASSERT_TRUE(store_->Put("WAL/1_b", View(B("b"))).ok());
  ASSERT_TRUE(store_->Put("WAL/2_c", View(B("c"))).ok());
  ASSERT_TRUE(store_->Put("DB/1_x", View(B("d"))).ok());

  // Strictly after: the cursor key itself is excluded.
  auto after = store_->List("WAL/", "WAL/1_b");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].name, "WAL/2_c");

  // The standby's derived cursor — the next expected key, not a seen one —
  // keeps every name at or past that ts (they all sort after the bare
  // "WAL/<ts>" because of the following '_').
  auto derived = store_->List("WAL/", "WAL/1");
  ASSERT_TRUE(derived.ok());
  ASSERT_EQ(derived->size(), 2u);
  EXPECT_EQ((*derived)[0].name, "WAL/1_b");
  EXPECT_EQ((*derived)[1].name, "WAL/2_c");

  // Empty cursor == plain prefix listing; a cursor below the prefix too.
  auto all = store_->List("WAL/", "");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  auto early = store_->List("WAL/", "A");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->size(), 3u);

  // A cursor past every key returns nothing.
  auto none = store_->List("WAL/", "WAL/9");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// The documented hazard: unpadded timestamps make lexicographic and numeric
// order diverge across a digit-length change, so "the last key I saw" is
// NOT a safe cursor — it would skip the rollover object.
TEST_P(StoreConformance, ListStartAfterUnpaddedTsHazard) {
  ASSERT_TRUE(store_->Put("WAL/9_a", View(B("a"))).ok());
  ASSERT_TRUE(store_->Put("WAL/10_b", View(B("b"))).ok());
  auto after_seen = store_->List("WAL/", "WAL/9_a");
  ASSERT_TRUE(after_seen.ok());
  EXPECT_TRUE(after_seen->empty());  // "WAL/10_b" < "WAL/9_a": skipped!
  // The next-expected-ts cursor ("WAL/10") does reach it — along with the
  // already-seen "WAL/9_a", which also sorts after "WAL/10". The cursor
  // guarantees nothing needed is *skipped*; consumers still re-filter
  // trailing old names by decoded ts (ContinueWalPlan's ts < next_ts).
  auto after_expected = store_->List("WAL/", "WAL/10");
  ASSERT_TRUE(after_expected.ok());
  ASSERT_EQ(after_expected->size(), 2u);
  EXPECT_EQ((*after_expected)[0].name, "WAL/10_b");
  EXPECT_EQ((*after_expected)[1].name, "WAL/9_a");
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreConformance,
                         ::testing::Values("memory", "disk", "s3"));

// -- MeteredStore -----------------------------------------------------------------

TEST(MeteredStore, CountsOpsAndBytes) {
  auto clock = std::make_shared<RealClock>();
  MeteredStore store(std::make_shared<MemoryStore>(), clock);
  ASSERT_TRUE(store.Put("a", View(B("12345"))).ok());
  ASSERT_TRUE(store.Put("b", View(B("xy"))).ok());
  (void)store.Get("a");
  (void)store.Get("missing");
  (void)store.List("");
  ASSERT_TRUE(store.Delete("b").ok());

  const UsageReport usage = store.Usage();
  EXPECT_EQ(usage.puts, 2u);
  EXPECT_EQ(usage.gets, 2u);
  EXPECT_EQ(usage.lists, 1u);
  EXPECT_EQ(usage.deletes, 1u);
  EXPECT_EQ(usage.bytes_uploaded, 7u);
  EXPECT_EQ(usage.bytes_downloaded, 5u);
  EXPECT_EQ(usage.current_storage_bytes, 5u);  // only "a" remains
}

TEST(MeteredStore, OverwriteAdjustsStorage) {
  auto clock = std::make_shared<RealClock>();
  MeteredStore store(std::make_shared<MemoryStore>(), clock);
  ASSERT_TRUE(store.Put("k", View(B("1234567890"))).ok());
  ASSERT_TRUE(store.Put("k", View(B("12"))).ok());
  EXPECT_EQ(store.Usage().current_storage_bytes, 2u);
}

TEST(MeteredStore, MonthlyCostChargesPutsAndStorage) {
  auto clock = std::make_shared<RealClock>();
  MeteredStore store(std::make_shared<MemoryStore>(), clock);
  const Bytes gb_ish(1024 * 1024, 0);  // 1 MB stand-in
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.Put("o" + std::to_string(i), View(gb_ish)).ok());
  }
  const auto prices = PriceBook::AmazonS3May2017();
  // Normalize to a 1-month observation window: 1000 PUTs -> $0.005.
  const double month_us = 30.0 * 24 * 60 * 60 * 1e6;
  const double cost = store.MonthlyCost(prices, month_us);
  EXPECT_NEAR(cost, 0.005 + (1000.0 / 1024.0) * 0.023 * 0 /*avg over month ~0*/,
              0.02);
  EXPECT_GT(cost, 0.004);
}

TEST(MeteredStore, LatencyModelSleepsAndRecords) {
  auto clock = std::make_shared<RealClock>();
  LatencyParams params = LatencyParams::Instant();
  params.put_base_us = 2'000;
  auto latency = std::make_shared<LatencyModel>(params, clock);
  MeteredStore store(std::make_shared<MemoryStore>(), clock, latency);
  const auto start = clock->NowMicros();
  ASSERT_TRUE(store.Put("k", View(B("v"))).ok());
  EXPECT_GE(clock->NowMicros() - start, 900u);
  EXPECT_EQ(store.put_latency().Count(), 1u);
  EXPECT_GT(store.put_latency().Mean(), 500.0);
}

// -- LatencyModel ---------------------------------------------------------------

TEST(LatencyModel, FitsTable3Shape) {
  // The WAN model should land near the paper's Table 3 PUT latencies.
  auto clock = std::make_shared<RealClock>();
  LatencyParams params = LatencyParams::WanS3();
  params.jitter_stddev = 0.0;
  LatencyModel model(params, clock);
  const double l386k = static_cast<double>(model.PutLatencyMicros(386 * 1024)) / 1000.0;
  const double l10m = static_cast<double>(model.PutLatencyMicros(10081 * 1024)) / 1000.0;
  EXPECT_NEAR(l386k, 692.0, 692.0 * 0.25);   // paper: 692 ms
  EXPECT_NEAR(l10m, 7707.0, 7707.0 * 0.25);  // paper: 7707 ms
}

TEST(LatencyModel, ColocatedIsMuchFaster) {
  auto clock = std::make_shared<RealClock>();
  LatencyModel wan(LatencyParams::WanS3(), clock);
  LatencyModel ec2(LatencyParams::Ec2Colocated(), clock);
  EXPECT_GT(wan.GetLatencyMicros(1024 * 1024),
            3 * ec2.GetLatencyMicros(1024 * 1024));
  EXPECT_GT(wan.PutLatencyMicros(1024 * 1024),
            10 * ec2.PutLatencyMicros(1024 * 1024));
}

// -- FaultyStore -------------------------------------------------------------------

TEST(FaultyStore, OutageFailsEverything) {
  FaultyStore store(std::make_shared<MemoryStore>());
  store.SetAvailable(false);
  EXPECT_EQ(store.Put("k", View(B("v"))).code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(store.Get("k").ok());
  EXPECT_FALSE(store.List("").ok());
  store.SetAvailable(true);
  EXPECT_TRUE(store.Put("k", View(B("v"))).ok());
  EXPECT_GE(store.injected_failures(), 3u);
}

TEST(FaultyStore, FailNextOpsIsExact) {
  FaultyStore store(std::make_shared<MemoryStore>());
  store.FailNextOps(2);
  EXPECT_FALSE(store.Put("k", View(B("v"))).ok());
  EXPECT_FALSE(store.Put("k", View(B("v"))).ok());
  EXPECT_TRUE(store.Put("k", View(B("v"))).ok());
}

TEST(FaultyStore, ProbabilityRoughlyHolds) {
  FaultyStore store(std::make_shared<MemoryStore>(), /*seed=*/3);
  store.SetFailureProbability(0.5);
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!store.Put("k", View(B("v"))).ok()) ++failures;
  }
  EXPECT_GT(failures, 350);
  EXPECT_LT(failures, 650);
}

// -- ReplicatedStore ----------------------------------------------------------------

TEST(ReplicatedStore, WritesToAllReadsFromAny) {
  auto a = std::make_shared<MemoryStore>();
  auto b = std::make_shared<MemoryStore>();
  ReplicatedStore store({a, b});
  ASSERT_TRUE(store.Put("k", View(B("v"))).ok());
  EXPECT_EQ(a->ObjectCount(), 1u);
  EXPECT_EQ(b->ObjectCount(), 1u);
  a->Clear();  // first replica loses data
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("v"));
}

TEST(ReplicatedStore, SurvivesOneProviderOutageWithQuorum) {
  auto a = std::make_shared<MemoryStore>();
  auto faulty_inner = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(faulty_inner);
  faulty->SetAvailable(false);
  ReplicatedStore store({a, faulty}, /*quorum=*/1);
  EXPECT_TRUE(store.Put("k", View(B("v"))).ok());
  EXPECT_TRUE(store.Get("k").ok());
}

TEST(ReplicatedStore, FullQuorumFailsOnOutage) {
  auto a = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  faulty->SetAvailable(false);
  ReplicatedStore store({a, faulty});  // quorum = all
  EXPECT_FALSE(store.Put("k", View(B("v"))).ok());
}

TEST(ReplicatedStore, ListIsUnion) {
  auto a = std::make_shared<MemoryStore>();
  auto b = std::make_shared<MemoryStore>();
  ASSERT_TRUE(a->Put("only-a", View(B("1"))).ok());
  ASSERT_TRUE(b->Put("only-b", View(B("2"))).ok());
  ReplicatedStore store({a, b}, 1);
  auto list = store.List("");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

}  // namespace
}  // namespace ginja
