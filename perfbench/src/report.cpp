#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void Outcome::Gate(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    gate_failures.push_back(what);
  }
}

void Outcome::EndToEnd(const std::string& name, double value,
                       const std::string& unit) {
  end_to_end.push_back({name, value, unit, ""});
}

void Outcome::LayerMetric(const std::string& name, double value,
                          const std::string& unit, const std::string& note) {
  per_layer.push_back({name, value, unit, note});
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void PrintReport(const RunOptions& options, const Outcome& outcome) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : outcome.lines) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("end-to-end:\n");
  for (const Metric& m : outcome.end_to_end) {
    std::printf("  %-28s %16s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  if (options.trace) {
    std::printf("per-layer:\n");
    for (const Metric& m : outcome.per_layer) {
      std::printf("  %-34s %16s %-6s %s\n", m.name.c_str(),
                  Number(m.value).c_str(), m.unit.c_str(),
                  m.note.empty() ? "" : ("(absent: " + m.note + ")").c_str());
    }
  }
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& gate : outcome.gate_failures) {
    std::printf("GATE FAILED: %s\n", gate.c_str());
  }

  // The last line: the machine-readable result.
  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  const auto& metrics = options.trace ? outcome.per_layer : outcome.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += Quote(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
