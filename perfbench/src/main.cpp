// serve_bench: runs one named workload against the serve pipeline and
// prints its result as one JSON line (the last line of stdout).
//
//   serve_bench --workload large-rounds --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The exit code is 0 only when every round passed the correctness gate.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "layers.hpp"
#include "measure.hpp"
#include "workload.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "serve_bench: " << why
            << "\nusage: serve_bench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const perfbench::WorkloadSpec& spec : perfbench::workloads()) {
    std::cerr << ' ' << spec.name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value) != 0;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad argument: ") + e.what());
  }
  if (workload.empty()) return usage("--workload is required");

  try {
    const perfbench::WorkloadSpec& spec = perfbench::find_workload(workload);
    const perfbench::RunResult result =
        trace ? perfbench::run_traced(spec, seed, seconds)
              : perfbench::run_end_to_end(spec, seed, seconds);
    std::cerr << "rounds attempted " << result.attempted << ", failed "
              << result.failed << ", round_fail_ratio "
              << static_cast<double>(result.failed) /
                     static_cast<double>(std::max<std::int64_t>(result.attempted, 1))
              << '\n';
    if (!result.correct()) {
      std::cerr << "correctness gate failed: " << result.first_error << '\n';
    }
    std::cout << perfbench::to_json(result) << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << '\n';
    return 1;
  }
}
