// Statistics helpers of the benchmark: the reporting quantile rule, span
// self time, open-loop lateness and write exposure from a submit/ack
// timeline. Pure functions over plain vectors, so the unit tests in
// perfbench/tests can pin each rule down exactly.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// A timing distribution as the benchmark reports it: the median and the
// highest percentile (capped at p99) with at least ten samples beyond it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double tail_q = 0;  // quantile of `tail`, e.g. 0.99
  double tail = 0;
};

// The highest quantile q <= 0.99 that leaves at least `min_beyond` samples
// strictly above the nearest-rank position of q among `count` samples; 0
// when even the median would not (count < 2 * min_beyond).
double TailQuantile(std::size_t count, std::size_t min_beyond = 10);

// Nearest-rank quantile of `sorted` (ascending, non-empty).
double QuantileSorted(const std::vector<double>& sorted, double q);

// Sorts `samples` and summarizes them by the rule above.
Summary Summarize(std::vector<double> samples);

// Median of a small set of repeated measurements (set-up times, recovery
// times); 0 when empty.
double Median(std::vector<double> values);

// Groups timestamped samples into `slices` equal slices of [begin, end);
// samples outside the window are dropped. Reporting the median over slices
// of a per-slice figure keeps one disturbed slice (a host stall, magnified
// by a scaled clock) from moving a run's result.
std::vector<std::vector<double>> BySlice(const std::vector<std::uint64_t>& at,
                                         const std::vector<double>& values,
                                         std::uint64_t begin, std::uint64_t end,
                                         int slices);

// Median over slices of the per-slice tail (see Summarize).
double SliceMedianTail(const std::vector<std::uint64_t>& at,
                       const std::vector<double>& values, std::uint64_t begin,
                       std::uint64_t end, int slices);

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive; end >= begin
};

// Self time of `parent`: its length minus the part of it that the union of
// `children` covers. Children may overlap each other and may stick out of
// the parent; only their union inside the parent is subtracted.
std::uint64_t SelfTime(Interval parent, std::vector<Interval> children);

// Open-loop generator accounting. Request i was due at due[i] and handed to
// the system at sent[i] (same clock). Lateness is max(0, sent - due):
// how far behind schedule the generator ran, which a stalled Submit pushes
// onto every later request.
std::vector<double> Lateness(const std::vector<std::uint64_t>& due,
                             const std::vector<std::uint64_t>& sent);

// Exposure at each submit: write i returned from Submit at returned[i]
// (non-decreasing in i) and was acknowledged at acked[i] (non-decreasing in
// i: acks retire a consecutive prefix). exposure[k] is the number of writes
// j <= k that had returned by returned[k] but were not yet acknowledged,
// i.e. writes a disaster at that instant would lose.
std::vector<std::uint64_t> Exposure(const std::vector<std::uint64_t>& returned,
                                    const std::vector<std::uint64_t>& acked);

}  // namespace perfbench
