// Extension — aggregate protection under many unstable prefixes.
//
// RFC 3221 (cited in §1) credits damping with keeping the global update
// load under control. With several origins flapping persistently and
// concurrently, damping caps the per-origin update cost at roughly one
// charging period each, while the undamped load scales with
// origins x pulses.
//
// `run_multi_origin` records no metrics, trace or profile, so --metrics,
// --trace, --trace-format and --profile exit 2 before any run.

#include <iostream>
#include <string>

#include "core/multi_origin.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  rfdnet::core::ParallelRunner::configure_from_args(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    for (const std::string flag :
         {"--metrics", "--trace", "--trace-format", "--profile"}) {
      if (arg == flag || arg.rfind(flag + "=", 0) == 0) {
        std::cerr << "ext_multi_origin: " << flag << " is not supported\n";
        return 2;
      }
    }
  }
  using namespace rfdnet;

  std::cout << "Extension: concurrent unstable origins (100-node mesh, 5 "
               "pulses each, staggered)\n\n";

  for (const bool damping : {false, true}) {
    std::cout << "-- " << (damping ? "full damping" : "no damping") << " --\n";
    core::TextTable t({"origins", "messages", "convergence (s)",
                       "suppressions", "isps suppressed"});
    for (const int origins : {1, 2, 4, 8}) {
      core::MultiOriginConfig cfg;
      cfg.topology.kind = core::TopologySpec::Kind::kMeshTorus;
      cfg.topology.width = 10;
      cfg.topology.height = 10;
      cfg.origins = origins;
      cfg.pulses = 5;
      cfg.seed = 1;
      if (!damping) cfg.damping.reset();
      const auto res = core::run_multi_origin(cfg);
      int suppressed_isps = 0;
      for (const bool b : res.isp_suppressed) suppressed_isps += b;
      t.add_row({core::TextTable::num(origins),
                 core::TextTable::num(res.message_count),
                 core::TextTable::num(res.convergence_time_s, 0),
                 core::TextTable::num(res.suppress_events),
                 core::TextTable::num(suppressed_isps) + "/" +
                     core::TextTable::num(origins)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "check: with damping every origin's ispAS suppresses its "
               "prefix, and the total\nmessage count grows far slower with "
               "the number of unstable origins.\n";
  return 0;
}
