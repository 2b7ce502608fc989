#include "bench_stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
// Nearest-rank index of quantile q among n sorted samples, computed in
// integer per-mille so that e.g. p99 of 1000 samples is exactly rank 990.
std::size_t RankIndex(std::size_t n, double q) {
  const auto per_mille = static_cast<std::uint64_t>(std::llround(q * 1000));
  const std::uint64_t rank = (per_mille * n + 999) / 1000;  // ceil
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n) - 1);
}
}  // namespace

double TailQuantile(std::size_t count, std::size_t min_beyond) {
  if (count == 0) return 0;
  // Candidates from p99 down to the median in 0.5-point steps.
  for (int per_mille = 990; per_mille >= 500; per_mille -= 5) {
    const double q = per_mille / 1000.0;
    if (count - 1 - RankIndex(count, q) >= min_beyond) return q;
  }
  return 0;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  return sorted[RankIndex(sorted.size(), q)];
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileSorted(samples, 0.5);
  s.tail_q = TailQuantile(samples.size());
  // Too few samples for any percentile with ten beyond: report the maximum
  // and mark it with tail_q == 1.
  if (s.tail_q == 0) {
    s.tail_q = 1;
    s.tail = samples.back();
  } else {
    s.tail = QuantileSorted(samples, s.tail_q);
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<std::vector<double>> BySlice(const std::vector<std::uint64_t>& at,
                                         const std::vector<double>& values,
                                         std::uint64_t begin, std::uint64_t end,
                                         int slices) {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(std::max(slices, 1)));
  if (end <= begin) return out;
  const std::uint64_t span = end - begin;
  for (std::size_t i = 0; i < std::min(at.size(), values.size()); ++i) {
    if (at[i] < begin || at[i] >= end) continue;
    out[(at[i] - begin) * out.size() / span].push_back(values[i]);
  }
  return out;
}

double SliceMedianTail(const std::vector<std::uint64_t>& at,
                       const std::vector<double>& values, std::uint64_t begin,
                       std::uint64_t end, int slices) {
  std::vector<double> tails;
  for (auto& slice : BySlice(at, values, begin, end, slices)) {
    if (!slice.empty()) tails.push_back(Summarize(std::move(slice)).tail);
  }
  return Median(std::move(tails));
}

std::uint64_t SelfTime(Interval parent, std::vector<Interval> children) {
  const std::uint64_t length = parent.end - parent.begin;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.begin;  // everything before is accounted for
  for (const Interval& c : children) {
    const std::uint64_t b = std::max(c.begin, cursor);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return length - covered;
}

std::vector<double> Lateness(const std::vector<std::uint64_t>& due,
                             const std::vector<std::uint64_t>& sent) {
  std::vector<double> late(std::min(due.size(), sent.size()));
  for (std::size_t i = 0; i < late.size(); ++i) {
    late[i] = sent[i] > due[i] ? static_cast<double>(sent[i] - due[i]) : 0.0;
  }
  return late;
}

std::vector<std::uint64_t> Exposure(const std::vector<std::uint64_t>& returned,
                                    const std::vector<std::uint64_t>& acked) {
  const std::size_t n = std::min(returned.size(), acked.size());
  std::vector<std::uint64_t> exposure(n);
  std::size_t acked_by = 0;  // writes acknowledged at or before returned[k]
  for (std::size_t k = 0; k < n; ++k) {
    while (acked_by < n && acked[acked_by] <= returned[k]) ++acked_by;
    const std::size_t returned_by = k + 1;
    exposure[k] = returned_by > acked_by ? returned_by - acked_by : 0;
  }
  return exposure;
}

}  // namespace perfbench
