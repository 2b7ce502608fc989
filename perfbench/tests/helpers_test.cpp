// Tests of the benchmark's own statistics helpers.
#include <gtest/gtest.h>

#include <numeric>

#include "bench_stats.h"
#include "probes.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

std::size_t Beyond(const std::vector<double>& sorted, double value) {
  std::size_t n = 0;
  for (double v : sorted) n += v > value;
  return n;
}

TEST(QuantileRule, P99NeedsAThousandSamples) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  EXPECT_LT(TailQuantile(999), 0.99);
  const Summary s = Summarize(Ramp(1000));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(s.tail, 990);
  EXPECT_EQ(Beyond(Ramp(1000), s.tail), 10u);
  EXPECT_DOUBLE_EQ(s.p50, 500);
  EXPECT_EQ(s.count, 1000u);
}

TEST(QuantileRule, AlwaysLeavesTenSamplesBeyond) {
  for (std::size_t n : {20u, 37u, 100u, 250u, 999u, 1000u, 5000u}) {
    const Summary s = Summarize(Ramp(n));
    EXPECT_GE(Beyond(Ramp(n), s.tail), 10u) << "n=" << n;
    EXPECT_LE(s.tail_q, 0.99) << "n=" << n;
    EXPECT_GE(s.tail_q, 0.5) << "n=" << n;
  }
  // 100 samples: p90 leaves exactly ten beyond, p90.5 would leave nine.
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);
}

TEST(QuantileRule, TooFewSamplesReportTheMaximum) {
  EXPECT_EQ(TailQuantile(19), 0);
  const Summary s = Summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(s.tail_q, 1);
  EXPECT_DOUBLE_EQ(s.tail, 3);
  EXPECT_DOUBLE_EQ(s.p50, 2);
}

TEST(QuantileRule, MedianOfRepeats) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(QuantileRule, SlicesGroupByTimestamp) {
  const auto slices = BySlice({0, 5, 10, 19, 20, 25}, {1, 2, 3, 4, 5, 6},
                              /*begin=*/0, /*end=*/20, 2);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0], (std::vector<double>{1, 2}));
  EXPECT_EQ(slices[1], (std::vector<double>{3, 4}));  // 20 and 25 are outside
}

TEST(QuantileRule, SliceMedianIgnoresOneDisturbedSlice) {
  // Three slices of 1..100; the middle one has a stall of 1000 in its tail.
  std::vector<std::uint64_t> at;
  std::vector<double> v;
  for (std::uint64_t slice = 0; slice < 3; ++slice) {
    for (int i = 1; i <= 100; ++i) {
      at.push_back(slice * 100 + static_cast<std::uint64_t>(i - 1));
      v.push_back(slice == 1 && i > 80 ? 1000 : i);
    }
  }
  EXPECT_DOUBLE_EQ(SliceMedianTail(at, v, 0, 300, 3), 90);  // p90 of 1..100
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTime({100, 200}, {}), 100u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [110,150) and [140,170) overlap on [140,150): covered 60.
  EXPECT_EQ(SelfTime({100, 200}, {{110, 150}, {140, 170}}), 40u);
  // Order does not matter; a child nested in another adds nothing.
  EXPECT_EQ(SelfTime({100, 200}, {{140, 170}, {120, 130}, {110, 150}}), 40u);
}

TEST(SelfTime, ChildrenClippedToTheParent) {
  EXPECT_EQ(SelfTime({100, 200}, {{50, 120}, {180, 260}}), 60u);
  EXPECT_EQ(SelfTime({100, 200}, {{0, 300}}), 0u);
  EXPECT_EQ(SelfTime({100, 200}, {{0, 50}, {250, 300}}), 100u);
}

TEST(SelfTime, FromRecordedSpans) {
  // A parent with two overlapping direct children and one unrelated span.
  std::vector<Span> spans(4);
  spans[0] = {1, 0, 7, 1000, 11000, 0, 0, Layer::kTxn};
  spans[1] = {2, 1, 7, 2000, 5000, 0, 0, Layer::kFsAbove};
  spans[2] = {3, 1, 7, 4000, 6000, 0, 0, Layer::kFsAbove};
  spans[3] = {4, 0, 0, 0, 20000, 0, 0, Layer::kCloudPut};
  const auto self = SelfTimesUs(spans, Layer::kTxn, {Layer::kFsAbove});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_DOUBLE_EQ(self[0], 6.0);  // 10 us minus the 4 us [2000,6000)
}

TEST(Lateness, OnTimeAndLateRequests) {
  const auto late = Lateness({100, 200, 300, 400}, {100, 250, 320, 390});
  ASSERT_EQ(late.size(), 4u);
  EXPECT_DOUBLE_EQ(late[0], 0);
  EXPECT_DOUBLE_EQ(late[1], 50);
  EXPECT_DOUBLE_EQ(late[2], 20);
  EXPECT_DOUBLE_EQ(late[3], 0);  // early is not negative lateness
}

TEST(Lateness, AStallDelaysEveryLaterRequest) {
  // One stall of 1000 at request 1: requests 2..4 were due during the stall
  // and are sent back to back when it ends.
  const auto late =
      Lateness({0, 100, 200, 300, 400}, {0, 100, 1100, 1101, 1102});
  EXPECT_DOUBLE_EQ(late[2], 900);
  EXPECT_DOUBLE_EQ(late[3], 801);
  EXPECT_DOUBLE_EQ(late[4], 702);
}

TEST(Exposure, FromSubmitAckTimeline) {
  // Writes return at 10,20,30,40; acks land at 25 (w0,w1), 45 (w2), 50 (w3).
  const auto e = Exposure({10, 20, 30, 40}, {25, 25, 45, 50});
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[0], 1u);  // w0 out
  EXPECT_EQ(e[1], 2u);  // w0, w1 out
  EXPECT_EQ(e[2], 1u);  // w0, w1 acked at 25; w2 out
  EXPECT_EQ(e[3], 2u);  // w2, w3 out
}

TEST(Exposure, AckAtTheSameInstantIsNotExposed) {
  const auto e = Exposure({10, 20}, {10, 20});
  EXPECT_EQ(e[0], 0u);
  EXPECT_EQ(e[1], 0u);
}

TEST(Exposure, OutageBuildsUpUntilTheAck) {
  std::vector<std::uint64_t> returned, acked;
  for (std::uint64_t i = 0; i < 50; ++i) {
    returned.push_back(i);
    acked.push_back(1000);  // nothing acknowledged until t=1000
  }
  const auto e = Exposure(returned, acked);
  for (std::size_t k = 0; k < e.size(); ++k) EXPECT_EQ(e[k], k + 1);
}

}  // namespace
}  // namespace perfbench
