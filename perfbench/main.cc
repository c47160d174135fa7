// perfbench: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Prints progress lines, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. Exits 0 only when every
// answer matched the oracle and every mechanism check held.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload adapt_point|mixed_dml "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Progress lines appear as they happen, also through a pipe.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return Usage();
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 != 1 || args.seconds < 0) return Usage();

  perfbench::Report (*run)(const perfbench::Args&) = nullptr;
  if (args.workload == "adapt_point") run = perfbench::RunAdaptPoint;
  if (args.workload == "mixed_dml") run = perfbench::RunMixedDml;
  if (run == nullptr) return Usage();

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  try {
    const perfbench::Report report = run(args);
    std::printf("fail_frac=%.6g (%llu of %llu statements)\n",
                report.attempted > 0
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string& what : report.invalid) {
      std::printf("check failed: %s\n", what.c_str());
    }
    std::printf("%s\n", report.Json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
