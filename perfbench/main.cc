// perfbench: the repository benchmark program.
//
//   perfbench --workload <train_cell|serve_read> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --print-config
//
// Prints progress, a machine line and (traced runs) the per-layer table,
// then, as its last line, one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics when --trace 0, the
// per-layer metrics when --trace 1. Exits 1 when a correctness check
// failed and 2 on bad arguments.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/profiler.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

using cpdg::perfbench::Args;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_cell|serve_read> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --print-config\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-config") {
      std::printf("%s\n", cpdg::perfbench::ConfigJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload || args.seconds <= 0.0) return Usage();

  // Precise sleeps for the load generator and the batch-step clock: the
  // default 50 us timer slack would dominate sub-millisecond gaps.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  cpdg::obs::SetTraceEnabled(false);
  cpdg::SetLogLevel(cpdg::LogLevel::kWarning);

  std::printf("machine: %s\n", cpdg::perfbench::MachineJson().c_str());
  const cpdg::perfbench::StealMeter steal;
  cpdg::perfbench::Report report;
  if (args.workload == "train_cell") {
    cpdg::perfbench::RunTrainCell(args, &report);
  } else if (args.workload == "serve_read") {
    cpdg::perfbench::RunServeRead(args, &report);
  } else {
    return Usage();
  }
  if (args.trace) {
    // Layers a workload leaves idle read 0.
    for (const auto& [name, unit] : cpdg::perfbench::PerLayerMetrics()) {
      if (!report.Has(name)) report.Set(name, 0.0, unit);
    }
  } else {
    for (const auto& [name, unit] : cpdg::perfbench::EndToEndMetrics()) {
      if (!report.Has(name)) report.Fail("metric " + name + " not measured");
    }
  }
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during "
              "the run\n",
              100.0 * steal.Share());
  std::fflush(stdout);
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
