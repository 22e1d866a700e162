// Extension — full-table Zipf churn, with the engine-overhead floor.
//
// The paper's experiments flap one prefix; a real default-free router
// carries hundreds of thousands and damps the unstable tail of a heavily
// skewed churn distribution. This workload originates a full table at one
// end of a line, then toggles Zipf-drawn prefixes (hot head flaps
// constantly, cold tail occasionally) and reports:
//
//  - throughput: delivered updates per wall-clock core-second, per backend;
//  - resident per-prefix state: peak/final (router, prefix) RIB rows —
//    bounded by the reclamation sweep, not by how many prefixes ever churned;
//  - damping state: peak/final tracked and active entries — the active set
//    is what the RFC 2439 memory-limit prune bounds.
//
// It runs the hash store and then the null backend, which retains nothing
// and is the pure engine-overhead floor, not a BGP simulation.
//
// Usage:
//   ext_full_table [--prefixes N] [--alpha A] [--events N] [--interval S]
//                  [--routers N] [--seed S] [--samples N] [--cooldown S]
//                  [--rib-backend hash|null] [--json PATH]
//                  [--shards N] [--stability] [--stability-gap S] [--metrics]
//
// --metrics prints the merged metrics of every backend's run on exit;
// --trace, --trace-format and --profile exit 2 (nothing records them here).
//
// Defaults are sized so the no-argument run (check.sh runs every bench
// binary bare) finishes in seconds; the perf-tier ctest invocation passes
// the full 100k+ prefix configuration. With --rib-backend only that backend
// runs ("radix" is a name for hash); --json writes the first run's scorecard
// JSON ("-" = stdout).

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/full_table.hpp"
#include "core/report.hpp"

namespace {

struct Row {
  rfdnet::bgp::RibBackendKind backend;
  rfdnet::core::FullTableResult res;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rfdnet;
  core::ArgParser args({"metrics", "stability"},
                       {"prefixes", "alpha", "events", "interval", "routers",
                        "seed", "samples", "cooldown", "rib-backend", "json",
                        "shards", "trace", "trace-format", "profile",
                        "stability-gap"});
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n";
    return 2;
  }
  // The full-table driver records no event trace and no dispatch profile;
  // rejected before the scope opens, so nothing empty is written on exit.
  for (const char* flag : {"trace", "trace-format", "profile"}) {
    if (args.has(flag)) {
      std::cerr << "ext_full_table: --" << flag
                << " is not supported (only --metrics is)\n";
      return 2;
    }
  }
  core::FullTableConfig cfg;
  cfg.prefixes = static_cast<std::size_t>(args.get_u64("prefixes", 20000));
  cfg.alpha = args.get_double("alpha", 1.0);
  cfg.events = args.get_u64("events", 20000);
  cfg.event_interval_s = args.get_double("interval", 0.05);
  cfg.routers = args.get_int("routers", 4);
  cfg.seed = args.get_u64("seed", 1);
  cfg.samples = static_cast<std::size_t>(args.get_u64("samples", 64));
  cfg.cooldown_s = args.get_double("cooldown", 120.0);
  // Shards the line is cut into; 0 and 1 both run one shard on the calling
  // thread, and the scorecard is byte-identical at every shard count.
  cfg.shards = args.get_int("shards", 0);
  // Streaming train analytics shard cleanly, so --stability composes with
  // --shards.
  cfg.collect_stability = args.has("stability");
  if (args.has("stability-gap")) {
    cfg.stability_gap_s = args.get_double("stability-gap", 30.0);
  }
  std::vector<bgp::RibBackendKind> backends(bgp::kAllRibBackends.begin(),
                                            bgp::kAllRibBackends.end());
  if (args.has("rib-backend")) {
    const auto kind = bgp::parse_rib_backend(args.get("rib-backend"));
    if (!kind) {
      std::cerr << "ext_full_table: unknown --rib-backend '"
                << args.get("rib-backend") << "' (hash|null)\n";
      return 2;
    }
    backends = {*kind};
  }
  // Rejected once, like a bad flag, before any backend runs or the scope
  // opens.
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "ext_full_table: " << e.what() << "\n";
    return 2;
  }
  const core::ObsScope obs(argc, argv);

  std::cout << "Extension: full-table Zipf churn (" << cfg.prefixes
            << " prefixes, alpha " << cfg.alpha << ", " << cfg.events
            << " toggles, " << cfg.routers << "-router line, seed " << cfg.seed;
  if (cfg.shards >= 1) std::cout << ", " << cfg.shards << " shard(s)";
  std::cout << ")\n\n";

  std::vector<Row> rows;
  for (const auto backend : backends) {
    core::FullTableConfig run_cfg = cfg;
    run_cfg.rib_backend = backend;
    rows.push_back(Row{backend, core::run_full_table(run_cfg)});
    core::obs_runtime::accumulate(rows.back().res.metrics);
  }

  core::TextTable t({"backend", "updates/s/core", "wall (s)", "delivered",
                     "rib peak", "rib final", "rfd tracked peak",
                     "rfd active peak", "rfd active final"});
  for (const Row& r : rows) {
    t.add_row({to_string(r.backend),
               core::TextTable::num(r.res.updates_per_core_sec, 0),
               core::TextTable::num(r.res.wall_s, 2),
               core::TextTable::num(r.res.updates_delivered),
               core::TextTable::num(std::uint64_t{r.res.peak_rib_resident}),
               core::TextTable::num(std::uint64_t{r.res.final_rib_resident}),
               core::TextTable::num(std::uint64_t{r.res.peak_damping_tracked}),
               core::TextTable::num(std::uint64_t{r.res.peak_damping_active}),
               core::TextTable::num(std::uint64_t{r.res.final_damping_active})});
  }
  t.print(std::cout);
  std::cout << "\n";

  if (cfg.collect_stability) {
    for (const Row& r : rows) {
      if (!r.res.stability) continue;
      std::cout << "stability[" << to_string(r.backend)
                << "]: " << r.res.stability->summary_line() << "\n";
    }
    std::cout << "\n";
  }

  if (args.has("json")) {
    // The first run: the hash store unless --rib-backend chose null.
    const std::string card = rows.front().res.scorecard();
    const std::string path = args.get("json");
    if (path == "-") {
      std::cout << card << "\n";
    } else {
      std::ofstream out(path);
      if (!out) {
        std::cerr << "ext_full_table: cannot write " << path << "\n";
        return 1;
      }
      out << card << "\n";
      std::cout << "wrote " << path << "\n";
    }
  }

  std::cout << "\ntrend check: final RIB residency is routers*(prefixes "
               "up) rows — the\nwithdrawn tail is reclaimed, not leaked; "
               "damping state tracks only the churned\nsubset of the table "
               "(decayed episodes are pruned on the next charge, RFC 2439\n"
               "memory limit); the null backend is the pure engine-overhead "
               "floor.\n";
  return 0;
}
