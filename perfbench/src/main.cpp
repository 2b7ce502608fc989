// perfbench — the repository benchmark for Ginja.
//
//   perfbench --workload <tpcc|wal_wan|recover|recover_wan> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report and, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1
// when a correctness gate trips, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tpcc|wal_wan|recover|recover_wan> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.seconds > 600) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Outcome outcome;
  if (options.workload == "tpcc") {
    outcome = perfbench::RunTpcc(options);
  } else if (options.workload == "wal_wan") {
    outcome = perfbench::RunWalWan(options);
  } else if (options.workload == "recover") {
    outcome = perfbench::RunRecover(options, /*wan=*/false);
  } else if (options.workload == "recover_wan") {
    outcome = perfbench::RunRecover(options, /*wan=*/true);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  perfbench::PrintReport(options, outcome);
  return outcome.correct() ? 0 : 1;
}
