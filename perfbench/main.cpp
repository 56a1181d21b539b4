// The anycastd benchmark binary.
//
//   perfbench --workload watch_rounds|reanalyze_stored
//             --seed N --seconds S --trace 0|1
//             [--scale paper|toy] [--corrupt-oracle] [--work-dir DIR]
//             [--commit SHA] [--source-digest HEX]
//
// Prints progress lines, a host/size stamp, the end-to-end values under
// each workload's own metric names, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness oracle fails, 2 on bad usage or an unoptimised build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale paper|toy] "
               "[--corrupt-oracle] [--work-dir DIR] [--commit SHA] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Options options;
  options.work_dir = "perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value == "toy") {
        options.scale = toy_scale();
      } else if (value != "paper") {
        return usage("bad --scale");
      }
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (options.workload == "watch_rounds") {
    run = run_watch_rounds;
  } else if (options.workload == "reanalyze_stored") {
    run = run_reanalyze_stored;
  } else {
    return usage("--workload must be watch_rounds or reanalyze_stored");
  }

  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir, ec);
  if (ec) return usage(("cannot create work dir: " + ec.message()).c_str());

  Report report;
  run(options, report);
  report.set("fail_ratio",
             report.attempted() == 0
                 ? 0.0
                 : static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted()),
             "ratio");
  fs::remove_all(options.work_dir, ec);

  std::printf("end-to-end, by workload name (%s):\n",
              options.workload.c_str());
  report.print_notes();
  std::printf("%s\n", report.result_json(options.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
