// perfbench: runs one benchmark workload against the rfdnet drivers and
// prints its notes, then one JSON object as the last line of stdout:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --rfdnetd PATH --tmp-dir DIR
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones (README.md lists both). Exits 1 when any check failed.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "core/cli.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

const std::map<std::string, void (*)(const Args&, Outcome&)> kWorkloads = {
    {"paper_sweep", perfbench::run_paper_sweep},
    {"internet_flap", perfbench::run_internet_flap},
    {"full_table_churn", perfbench::run_full_table_churn},
    {"whatif_daemon", perfbench::run_whatif_daemon},
};

void print_result(const Outcome& out, bool correct) {
  for (const std::string& n : out.notes) std::cout << n << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value.first);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << num << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  rfdnet::core::ArgParser flags(
      {}, {"workload", "seed", "seconds", "trace", "rfdnetd", "tmp-dir"});
  if (!flags.parse(argc, argv)) {
    std::cerr << "error: " << flags.error() << "\n";
    return 2;
  }
  Args args;
  args.workload = flags.get("workload");
  args.seed = flags.get_u64("seed", 1);
  args.seconds = flags.get_double("seconds", 10.0);
  args.trace = flags.get_int("trace", 0) != 0;
  args.rfdnetd = flags.get("rfdnetd");
  args.tmp_dir = flags.get("tmp-dir");
  const auto it = kWorkloads.find(args.workload);
  if (it == kWorkloads.end() || !(args.seconds > 0) || args.tmp_dir.empty()) {
    std::cerr << "error: need --workload {paper_sweep, internet_flap, "
                 "full_table_churn, whatif_daemon}, "
                 "--seconds > 0 and --tmp-dir\n";
    return 2;
  }

  // Every run keeps to the CPU it started on; see reference.cpp.
  perfbench::pin_to_current_cpu();
  Outcome out;
  try {
    it->second(args, out);
  } catch (const std::exception& e) {
    std::cerr << "error: " << args.workload << ": " << e.what() << "\n";
    out.fail(e.what());
    out.attempted = std::max<std::uint64_t>(out.attempted, out.failed);
  }
  const bool correct = out.failed == 0;
  print_result(out, correct);
  return correct ? 0 : 1;
}
