// Differential oracle for the streaming stability analytics (obs/stability):
// the online per-(from, to, prefix) update-train detectors must agree — byte
// for byte, through the %.17g JSON serialization — with a batch reference
// implementation that post-processes the run's JSONL trace after the fact.
//
// The contract that makes exact agreement possible: the engine clock is
// integer microseconds, the trace prints times as %.6f (lossless for
// integer-microsecond instants), and the tracker observes the same three
// emission sites the trace does (bgp.send, rfd.suppress, rfd.reuse) over the
// whole run, warm-up included. The reference here re-derives every train
// segmentation and moment from the trace text alone, with its own batch
// algorithm (collect all instants per key, then split at quiet gaps),
// sharing only the serialization types with the production code.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "fault/schedule.hpp"
#include "obs/stability.hpp"

namespace rfdnet {
namespace {

// ---------------------------------------------------------------------------
// Trace parsing (line-oriented; the sink writes one JSON object per line).

std::optional<std::string> json_field(const std::string& line,
                                      const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return std::nullopt;
  std::size_t begin = at + tag.size();
  std::size_t end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

std::uint32_t u32_field(const std::string& line, const std::string& name) {
  const auto v = json_field(line, name);
  EXPECT_TRUE(v.has_value()) << name << " missing in: " << line;
  return static_cast<std::uint32_t>(std::stoul(*v));
}

/// Trace instants are %.6f prints of an integer-microsecond clock, so
/// parsing back and rounding recovers the exact tick.
std::int64_t micros_field(const std::string& line) {
  const auto v = json_field(line, "t");
  EXPECT_TRUE(v.has_value()) << "t missing in: " << line;
  return std::llround(std::stod(*v) * 1e6);
}

// ---------------------------------------------------------------------------
// Batch reference: per key, collect every send instant in trace order, then
// segment offline and fold the same moments the tracker keeps online.

struct RefStream {
  std::vector<std::int64_t> t_us;
  std::uint64_t withdrawals = 0;
  std::uint64_t suppresses = 0;
  std::uint64_t reuses = 0;
};

obs::StabilityReport reference_from_trace(const std::string& trace_path,
                                          double gap_threshold_s) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  std::map<Key, RefStream> streams;  // ordered: canonical (from, to, prefix)

  std::ifstream in(trace_path);
  EXPECT_TRUE(in.good()) << "missing trace file: " << trace_path;
  std::string line;
  while (std::getline(in, line)) {
    const auto type = json_field(line, "type");
    if (!type) continue;
    if (*type == "bgp.send") {
      RefStream& s = streams[{u32_field(line, "from"), u32_field(line, "to"),
                              u32_field(line, "prefix")}];
      s.t_us.push_back(micros_field(line));
      if (json_field(line, "kind") == std::optional<std::string>("withdraw")) {
        ++s.withdrawals;
      }
    } else if (*type == "rfd.suppress" || *type == "rfd.reuse") {
      // Damping events fold into the directed key the suppressed entry's
      // update stream uses: peer -> node.
      RefStream& s = streams[{u32_field(line, "peer"), u32_field(line, "node"),
                              u32_field(line, "prefix")}];
      if (*type == "rfd.suppress") {
        ++s.suppresses;
      } else {
        ++s.reuses;
      }
    }
  }

  obs::StabilityReport r;
  // Same widening conversion the tracker's constructor applies.
  r.gap_threshold_us = static_cast<std::int64_t>(gap_threshold_s * 1e6);
  r.train_len_hist = obs::FixedHist(obs::StabilityReport::train_len_bounds());
  r.train_dur_hist =
      obs::FixedHist(obs::StabilityReport::duration_bounds_us());
  r.intra_hist = obs::FixedHist(obs::StabilityReport::intra_bounds_us());

  std::map<std::uint32_t, obs::StabilityReport::RouterEntry> by_router;
  for (const auto& [key, s] : streams) {
    obs::StabilityReport::KeyEntry k;
    k.from = std::get<0>(key);
    k.to = std::get<1>(key);
    k.prefix = std::get<2>(key);
    k.updates = s.t_us.size();
    k.withdrawals = s.withdrawals;
    k.suppresses = s.suppresses;
    k.reuses = s.reuses;

    // Offline segmentation: a gap strictly longer than the threshold closes
    // the train; a gap of exactly the threshold extends it.
    std::size_t i = 0;
    while (i < s.t_us.size()) {
      std::size_t j = i + 1;
      while (j < s.t_us.size() &&
             s.t_us[j] - s.t_us[j - 1] <= r.gap_threshold_us) {
        EXPECT_GE(s.t_us[j], s.t_us[j - 1]) << "trace not time-ordered";
        const std::int64_t gap = s.t_us[j] - s.t_us[j - 1];
        ++k.intra_count;
        k.intra_sum_us += gap;
        k.intra_sq_us2 +=
            static_cast<double>(gap) * static_cast<double>(gap);
        r.intra_hist.add(gap);
        ++j;
      }
      const std::uint64_t len = j - i;
      const std::int64_t dur = s.t_us[j - 1] - s.t_us[i];
      ++k.trains;
      if (len == 1) ++k.singletons;
      if (len > k.max_len) k.max_len = len;
      k.dur_sum_us += dur;
      k.dur_sq_us2 += static_cast<double>(dur) * static_cast<double>(dur);
      r.train_len_hist.add(static_cast<std::int64_t>(len));
      r.train_dur_hist.add(dur);
      if (j < s.t_us.size()) {
        const std::int64_t gap = s.t_us[j] - s.t_us[j - 1];
        ++k.gap_count;
        k.gap_sum_us += gap;
        if (gap > k.max_gap_us) k.max_gap_us = gap;
      }
      i = j;
    }
    r.keys.push_back(k);
  }

  // Fold run totals and router rollups in canonical key order, exactly like
  // StabilityTracker::report().
  for (const obs::StabilityReport::KeyEntry& k : r.keys) {
    r.updates += k.updates;
    r.withdrawals += k.withdrawals;
    r.trains += k.trains;
    r.singletons += k.singletons;
    r.max_len = std::max(r.max_len, k.max_len);
    r.dur_sum_us += k.dur_sum_us;
    r.dur_sq_us2 += k.dur_sq_us2;
    r.intra_count += k.intra_count;
    r.intra_sum_us += k.intra_sum_us;
    r.intra_sq_us2 += k.intra_sq_us2;
    r.gap_count += k.gap_count;
    r.gap_sum_us += k.gap_sum_us;
    r.max_gap_us = std::max(r.max_gap_us, k.max_gap_us);
    r.suppresses += k.suppresses;
    r.reuses += k.reuses;
    obs::StabilityReport::RouterEntry& e = by_router[k.to];
    e.router = k.to;
    e.updates += k.updates;
    e.withdrawals += k.withdrawals;
    e.trains += k.trains;
    e.singletons += k.singletons;
    e.max_len = std::max(e.max_len, k.max_len);
    e.suppresses += k.suppresses;
    e.reuses += k.reuses;
  }
  for (const auto& [id, e] : by_router) r.routers.push_back(e);
  return r;
}

// ---------------------------------------------------------------------------
// The (workload, seed, gap) matrix. Fig. 10-style pulse trains on the mesh
// plus a fault storm (damping churn with suppress/reuse events and irregular
// inter-arrival structure).

struct OracleCase {
  const char* name;
  int pulses;          // 0 = storm-only workload
  double storm_rate;   // > 0 attaches a Poisson fault storm
  std::uint64_t seed;
  double gap_s;
};

// Prints a case by its workload. gtest's fallback would dump the raw bytes,
// which start with the address of `name`, so the ctest names discovered from
// them changed from run to run under ASLR.
void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "pulses=" << c.pulses << ", storm=" << c.storm_rate
      << ", seed=" << c.seed << ", gap=" << c.gap_s << "s";
}

std::string case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  return std::string(info.param.name) + "_seed" +
         std::to_string(info.param.seed);
}

class StabilityOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(StabilityOracle, OnlineTrainsMatchTracePostProcessing) {
  const OracleCase& c = GetParam();
  const std::string trace =
      ::testing::TempDir() + "stability_oracle_" + c.name + "_s" +
      std::to_string(c.seed) + ".jsonl";

  core::ExperimentConfig cfg;
  cfg.topology.width = 6;
  cfg.topology.height = 6;
  cfg.seed = c.seed;
  cfg.isp = 0;
  cfg.pulses = c.pulses;
  cfg.collect_stability = true;
  cfg.stability_gap_s = c.gap_s;
  cfg.trace_path = trace;
  if (c.storm_rate > 0) {
    fault::StormOptions storm;
    storm.rate_per_s = c.storm_rate;
    storm.horizon_s = 300.0;
    fault::FaultPlan plan;
    plan.storm = storm;
    cfg.faults = plan;
  }

  const core::ExperimentResult res = core::run_experiment(cfg);
  ASSERT_TRUE(res.stability.has_value());
  // The workloads in the matrix all produce traffic and multi-update trains.
  EXPECT_GT(res.stability->updates, 0u);
  EXPECT_GT(res.stability->trains, 0u);
  EXPECT_GE(res.stability->updates, res.stability->trains);

  const obs::StabilityReport ref =
      reference_from_trace(trace, c.gap_s);

  // Byte-for-byte: every count, every integer microsecond sum, every %.17g
  // double (sums of squares, scores, moments) and both rollups.
  EXPECT_EQ(ref.to_json(), res.stability->to_json());
  EXPECT_EQ(ref.summary_json(), res.stability->summary_json());

  // Spot checks so a serialization bug can't mask a semantic one.
  EXPECT_EQ(ref.updates, res.stability->updates);
  EXPECT_EQ(ref.trains, res.stability->trains);
  EXPECT_EQ(ref.singletons, res.stability->singletons);
  EXPECT_EQ(ref.keys.size(), res.stability->keys.size());
  EXPECT_EQ(ref.suppresses, res.stability->suppresses);
  EXPECT_EQ(ref.reuses, res.stability->reuses);
  EXPECT_EQ(ref.intra_sum_us, res.stability->intra_sum_us);
  EXPECT_EQ(ref.gap_sum_us, res.stability->gap_sum_us);

  // The metric bundle mirrors the report's totals.
  const std::string metrics = res.metrics.json();
  EXPECT_NE(metrics.find("stability.updates"), std::string::npos);
  EXPECT_NE(metrics.find("stability.train_len"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadMatrix, StabilityOracle,
    ::testing::Values(
        // Fig. 10-style pulse trains (n = 1 and n = 3) across two seeds.
        OracleCase{"fig10_n1", 1, 0.0, 1, obs::StabilityTracker::kDefaultGapS},
        OracleCase{"fig10_n1", 1, 0.0, 2, obs::StabilityTracker::kDefaultGapS},
        OracleCase{"fig10_n3", 3, 0.0, 1, obs::StabilityTracker::kDefaultGapS},
        OracleCase{"fig10_n3", 3, 0.0, 2, obs::StabilityTracker::kDefaultGapS},
        // A tighter gap threshold splits the same n = 3 run differently.
        OracleCase{"fig10_n3_gap5", 3, 0.0, 1, 5.0},
        // Fault storms: suppress/reuse events plus irregular arrivals.
        OracleCase{"storm", 0, 0.02, 1, obs::StabilityTracker::kDefaultGapS},
        OracleCase{"storm", 0, 0.02, 3, obs::StabilityTracker::kDefaultGapS}),
    case_name);

// Two identical runs must emit byte-identical stability artifacts (the
// tracker holds no wall-clock or address-dependent state).
TEST(StabilityOracle, RepeatRunsAreByteIdentical) {
  core::ExperimentConfig cfg;
  cfg.topology.width = 5;
  cfg.topology.height = 5;
  cfg.seed = 11;
  cfg.pulses = 2;
  cfg.collect_stability = true;
  const core::ExperimentResult a = core::run_experiment(cfg);
  const core::ExperimentResult b = core::run_experiment(cfg);
  ASSERT_TRUE(a.stability && b.stability);
  EXPECT_EQ(a.stability->to_json(), b.stability->to_json());
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
}

}  // namespace
}  // namespace rfdnet
