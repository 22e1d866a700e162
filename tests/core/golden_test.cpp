// Golden artifacts: fnv1a fingerprints of deterministic outputs, compared
// against tests/golden/artifacts.txt. Each line names one artifact and holds
// its fingerprint plus readable message and suppression counts, so a diff
// shows at a glance whether the simulated workload moved or only its bytes.
//
// A change that is meant to alter these outputs regenerates the file by
// running this test with RFDNET_UPDATE_GOLDEN=1 in the environment
// (`core_tests --gtest_filter='GoldenArtifacts.*'`) and says so in
// CHANGES.md. A change that is not meant to alter them (a
// refactor, a speed-up) must leave this test passing unchanged.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/fnv1a.hpp"
#include "core/full_table.hpp"
#include "core/sharded.hpp"
#include "core/validation.hpp"

namespace rfdnet::core {
namespace {

std::string golden_line(const std::string& name, const std::string& bytes,
                        std::uint64_t messages, std::uint64_t suppressions) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s fnv1a=%016" PRIx64 " messages=%" PRIu64
                " suppressions=%" PRIu64,
                name.c_str(), fnv1a(bytes), messages, suppressions);
  return buf;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A 3-pulse run on a ~1000-node Internet-like graph with the flapping
/// origin on the best-connected AS (the shape of perfbench's internet_flap,
/// a third of its size).
ExperimentConfig internet_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topology.kind = TopologySpec::Kind::kInternetLike;
  cfg.topology.nodes = 1000;
  cfg.pulses = 3;
  cfg.seed = seed;
  sim::Rng rng(seed);
  net::Graph graph = cfg.topology.build(rng);
  net::NodeId hub = 0;
  for (net::NodeId v = 0; v < graph.node_count(); ++v) {
    if (graph.degree(v) > graph.degree(hub)) hub = v;
  }
  cfg.isp = hub;
  cfg.topology_graph = std::move(graph);
  return cfg;
}

/// Everything a traced, instrumented run exports: the result JSON, the
/// metrics registry, the telemetry series, and every span and phase
/// interval.
std::string observed_bytes(const ExperimentResult& r) {
  std::ostringstream os;
  os << result_json(r) << r.metrics.json() << "\n" << r.telemetry_jsonl;
  for (const obs::SpanRecord& s : r.spans) {
    os << s.trace_id << ' ' << s.span_id << ' ' << s.parent_span_id << ' '
       << s.kind << ' ' << fmt(s.t0_s) << ' ' << fmt(s.t1_s) << ' ' << s.node
       << ' ' << s.peer << ' ' << s.prefix << '\n';
  }
  for (const obs::PhaseInterval& p : r.phase_timeline) {
    os << p.node << ' ' << p.peer << ' ' << p.prefix << ' '
       << static_cast<int>(p.phase) << ' ' << fmt(p.t0_s) << ' '
       << fmt(p.t1_s) << '\n';
  }
  return os.str();
}

std::vector<std::string> compute_golden() {
  std::vector<std::string> lines;

  const ExperimentConfig plain = internet_config(1);
  {
    const ExperimentResult r = run_experiment(plain);
    lines.push_back(golden_line("internet.n1000.s1", result_json(r),
                                r.message_count, r.suppress_events));
  }
  {
    ExperimentConfig cfg = internet_config(2);
    cfg.collect_metrics = true;
    cfg.collect_stability = true;
    cfg.collect_spans = true;
    cfg.telemetry_period_s = 50.0;
    const ExperimentResult r = run_experiment(cfg);
    EXPECT_FALSE(r.spans.empty());
    EXPECT_FALSE(r.telemetry_jsonl.empty());
    lines.push_back(golden_line("internet.n1000.s2.obs", observed_bytes(r),
                                r.message_count, r.suppress_events));
  }
  {
    const ShardedExperimentResult r = run_sharded_experiment(plain, 2);
    lines.push_back(golden_line("sharded.k2.internet.n1000.s1", r.scorecard(),
                                r.base.message_count,
                                r.base.suppress_events));
  }
  {
    ValidationOptions opt;
    opt.seed = 1;
    const ValidationReport report = validate_reproduction(opt);
    std::string bytes;
    for (const ClaimCheck& c : report.checks) {
      bytes += (c.pass ? "PASS " : "FAIL ") + c.id + " | " + c.measured + "\n";
    }
    // The scorecard has no single run to count; it records claims instead.
    lines.push_back(golden_line("scorecard.s1", bytes, report.checks.size(),
                                report.failed()));
  }
  {
    // `micro_shard --scorecard`: the 208-node Internet experiment that bench
    // binary checks for shard-count invariance.
    ExperimentConfig cfg;
    cfg.topology.kind = TopologySpec::Kind::kInternetLike;
    cfg.topology.nodes = 208;
    cfg.pulses = 2;
    cfg.seed = 7;
    cfg.record_all_penalties = true;
    cfg.record_update_log = true;
    const ShardedExperimentResult r = run_sharded_experiment(cfg, 1);
    lines.push_back(golden_line("micro_shard.internet.n208.s7", r.scorecard(),
                                r.base.message_count,
                                r.base.suppress_events));
  }
  const auto full_table_line = [&lines](std::size_t prefixes,
                                        std::uint64_t events,
                                        bgp::RibBackendKind kind) {
    FullTableConfig cfg;
    cfg.prefixes = prefixes;
    cfg.events = events;
    cfg.rib_backend = kind;
    FullTableResult r = run_full_table(cfg);
    lines.push_back(golden_line(
        "full_table.p" + std::to_string(prefixes) + "." + bgp::to_string(kind),
        r.scorecard(), r.updates_delivered,
        static_cast<std::uint64_t>(
            r.metrics.counter("rfd.suppressions").value())));
  };
  full_table_line(2000, 4000, bgp::RibBackendKind::kHashMap);
  // The null store retains no row: routes die one hop out while the origin
  // keeps announcing.
  full_table_line(2000, 4000, bgp::RibBackendKind::kNull);
  // `ext_full_table --prefixes 20000 --events 20000`, the bench tier's
  // full-table scorecard.
  full_table_line(20000, 20000, bgp::RibBackendKind::kHashMap);
  return lines;
}

/// Entry lines of the golden file keyed by name ('#' lines are comments).
std::map<std::string, std::string> read_golden(const std::string& path) {
  std::map<std::string, std::string> by_name;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    by_name[line.substr(0, line.find(' '))] = line;
  }
  return by_name;
}

TEST(GoldenArtifacts, MatchRecordedFingerprints) {
  const std::string path = RFDNET_GOLDEN_FILE;
  const std::vector<std::string> lines = compute_golden();

  if (const char* update = std::getenv("RFDNET_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(path);
    out << "# Fingerprints of deterministic artifacts, checked by\n"
           "# tests/core/golden_test.cpp. Each line: name, fnv1a of the\n"
           "# artifact bytes, message count, suppression count (the\n"
           "# scorecard line counts claims and failed claims instead).\n";
    for (const std::string& l : lines) out << l << "\n";
    ASSERT_TRUE(out.good()) << "could not write " << path;
    GTEST_SKIP() << "rewrote " << path;
  }

  const std::map<std::string, std::string> golden = read_golden(path);
  ASSERT_FALSE(golden.empty()) << "no golden entries in " << path;
  EXPECT_EQ(golden.size(), lines.size());
  for (const std::string& l : lines) {
    const std::string name = l.substr(0, l.find(' '));
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << name;
    EXPECT_EQ(l, it->second) << "artifact changed: " << name;
  }
}

}  // namespace
}  // namespace rfdnet::core
