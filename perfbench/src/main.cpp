// perfbench: the repository benchmark. One workload per invocation.
//
//   perfbench --workload tran_ring|spec_sweep|daemon_mix --seed N
//             --seconds S --trace 0|1 --ref ring_reference.json
//             [--trace-out spans.json]
//   perfbench --reference-out FILE --command TEXT --revision REV
//
// Human-readable lines first; the last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit status 0
// when every correctness check passed, 1 when one failed, 2 on a usage
// or set-up error (no result line then).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::nowNs();  // pin the clock epoch
  perfbench::RunConfig cfg;
  std::string referenceOut, command, revision;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (k + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++k];
    if (arg == "--workload") cfg.workload = value;
    else if (arg == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") cfg.seconds = std::atof(value.c_str());
    else if (arg == "--trace") cfg.trace = value == "1";
    else if (arg == "--ref") cfg.refPath = value;
    else if (arg == "--trace-out") cfg.traceOut = value;
    else if (arg == "--reference-out") referenceOut = value;
    else if (arg == "--command") command = value;
    else if (arg == "--revision") revision = value;
    else usage(("unknown argument " + arg).c_str());
  }

  try {
    if (!referenceOut.empty()) {
      perfbench::writeRingReference(referenceOut, command, revision);
      return 0;
    }
    perfbench::Report report;
    if (cfg.workload == "tran_ring") {
      if (cfg.refPath.empty()) usage("tran_ring needs --ref");
      perfbench::runTranRing(cfg, report);
    } else if (cfg.workload == "spec_sweep") {
      perfbench::runSpecSweep(cfg, report);
    } else if (cfg.workload == "daemon_mix") {
      perfbench::runDaemonMix(cfg, report);
    } else {
      usage("--workload must be tran_ring, spec_sweep or daemon_mix");
    }
    std::printf("fail_ratio %.6g (%ld failed of %ld attempted)\n",
                static_cast<double>(report.failed()) /
                    static_cast<double>(std::max(1L, report.attempted())),
                report.failed(), report.attempted());
    std::cout << report.resultLine(cfg.trace) << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
