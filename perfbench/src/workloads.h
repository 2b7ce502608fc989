// The benchmark's workloads and the outcome each run reports.
//
// Every workload runs the paper's deployed configuration (B=100, S=1000,
// TB=1 s, compression and encryption on) and draws every random choice from
// the one --seed: TPC-C terminals, cloud latency jitter, arrival schedule.
//
// All workloads report the same end-to-end metric names; what an "op" is
// depends on the workload (README.md has the table):
//   tpcc         op = one TPC-C transaction (real clock)
//   wal_wan      op = one WAL write, due → acknowledged (model time)
//   recover      op = one cold recovery over the S3 wire + redo (real clock)
//   recover_wan  op = one cold recovery over the WAN-modeled store (model)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "common/codec/envelope.h"
#include "ginja/config.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // why a layer metric is absent on this workload, etc.
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // correctness gates that tripped
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> lines;  // human-readable report

  bool correct() const { return gate_failures.empty(); }
  // Records a correctness gate: one attempted check, failed when !ok.
  void Gate(bool ok, const std::string& what);
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void LayerMetric(const std::string& name, double value, const std::string& unit,
                   const std::string& note = "");
  void Line(const std::string& text) { lines.push_back(text); }
};

// The paper's deployed configuration, shared by every workload.
ginja::GinjaConfig DeployedConfig();

// Set-ups repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;
// Load threads / connections: never more than the host's 4 cores.
inline constexpr int kMaxLoadThreads = 4;

Outcome RunTpcc(const RunOptions& options);
Outcome RunWalWan(const RunOptions& options);
Outcome RunRecover(const RunOptions& options, bool wan);

// Names and units of the per-layer metrics every traced run reports, in
// report order; a workload that does not exercise a layer reports 0 with a
// note saying why.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& PerLayerMetrics();
// Adds the per-layer metrics the workload did not measure, as 0 with `why`.
void FillAbsentLayers(Outcome& outcome, const std::string& why);

// Decodes (MAC-verifies) every WAL/ and DB/ object of a bucket; with
// `time_encode`, re-encodes each payload to time the encoder too. The codec
// figures are thus measured on the workload's own stored objects.
struct CodecCheck {
  std::uint64_t objects = 0;
  std::uint64_t failures = 0;  // objects that did not GET or decode
  std::uint64_t stored_bytes = 0;
  std::uint64_t plain_bytes = 0;
  double decode_s = 0;
  double encode_s = 0;
};
CodecCheck CheckStoredObjects(ginja::ObjectStore& store,
                              const ginja::Envelope& envelope, bool time_encode);
// Adds codec.encode_mb_s, codec.decode_mb_s and codec.ratio.
void ReportCodec(Outcome& outcome, const CodecCheck& codec);

// Mixes a seed with a stream tag (SplitMix64 finalizer), so each RNG in a
// run gets an independent stream from the one --seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
