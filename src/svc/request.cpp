#include "svc/request.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/config_validate.hpp"
#include "core/export.hpp"
#include "core/sharded.hpp"
#include "fault/schedule.hpp"

namespace rfdnet::svc {

namespace {

/// Typed member extraction over a job object with error accumulation and
/// used-key tracking, so one final sweep can reject unknown members — a
/// typo'd knob must not silently run with its default (the same contract
/// `ArgParser` enforces for unknown flags).
class Fields {
 public:
  explicit Fields(const Json::Object& obj) : obj_(obj) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool has(const std::string& key) {
    return obj_.find(key) != obj_.end();
  }

  void reject_unknown() {
    if (!ok()) return;
    for (const auto& [key, value] : obj_) {
      if (!used_.contains(key)) {
        fail("unknown member '" + key + "'");
        return;
      }
    }
  }

  std::string get_string(const std::string& key, const std::string& dflt) {
    const Json* v = take(key);
    if (!v) return dflt;
    if (!v->is_string()) {
      fail("'" + key + "' must be a string");
      return dflt;
    }
    return v->as_string();
  }

  bool get_bool(const std::string& key, bool dflt) {
    const Json* v = take(key);
    if (!v) return dflt;
    if (!v->is_bool()) {
      fail("'" + key + "' must be a boolean");
      return dflt;
    }
    return v->as_bool();
  }

  double get_double(const std::string& key, double dflt) {
    const Json* v = take(key);
    if (!v) return dflt;
    if (!v->is_number()) {
      fail("'" + key + "' must be a number");
      return dflt;
    }
    return v->as_number();
  }

  /// Integer in [lo, hi]; non-integral numbers are errors, not truncations.
  long long get_int(const std::string& key, long long dflt, long long lo,
                    long long hi) {
    const Json* v = take(key);
    if (!v) return dflt;
    if (!v->is_number() || v->as_number() != std::floor(v->as_number())) {
      fail("'" + key + "' must be an integer");
      return dflt;
    }
    const double d = v->as_number();
    if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
      fail("'" + key + "' out of range [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
      return dflt;
    }
    return static_cast<long long>(d);
  }

  const Json* take(const std::string& key) {
    used_.insert(key);
    const auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
  }

  void fail(const std::string& msg) {
    if (error_.empty()) error_ = msg;
  }

 private:
  const Json::Object& obj_;
  std::set<std::string> used_;
  std::string error_;
};

bool parse_damping(Fields& f, std::optional<rfd::DampingParams>* out) {
  const std::string params = f.get_string("params", "cisco");
  if (params == "cisco") {
    *out = rfd::DampingParams::cisco();
  } else if (params == "juniper") {
    *out = rfd::DampingParams::juniper();
  } else if (params == "none") {
    out->reset();
  } else {
    f.fail("'params' must be one of cisco, juniper, none");
    return false;
  }
  return true;
}

bool parse_outputs(Fields& f, JobSpec* spec) {
  const Json* v = f.take("outputs");
  if (!v) {
    spec->want_scorecard = true;  // the deterministic default artifact
    return true;
  }
  if (!v->is_array() || v->as_array().empty()) {
    f.fail("'outputs' must be a non-empty array of strings");
    return false;
  }
  for (const Json& item : v->as_array()) {
    if (!item.is_string()) {
      f.fail("'outputs' entries must be strings");
      return false;
    }
    const std::string& name = item.as_string();
    if (name == "result") {
      spec->want_result = true;
    } else if (name == "scorecard") {
      spec->want_scorecard = true;
    } else if (name == "metrics") {
      spec->want_metrics = true;
    } else if (name == "stability") {
      spec->want_stability = true;
    } else if (name == "telemetry") {
      spec->want_telemetry = true;
    } else {
      f.fail("unknown output '" + name +
             "' (expected result, scorecard, metrics, stability, telemetry)");
      return false;
    }
  }
  return true;
}

bool parse_experiment(Fields& f, JobSpec* spec) {
  core::ExperimentConfig& cfg = spec->experiment;

  if (const Json* topo = f.take("topology")) {
    if (!topo->is_object()) {
      f.fail("'topology' must be an object");
      return false;
    }
    Fields t(topo->as_object());
    const std::string kind = t.get_string("kind", "mesh");
    if (kind == "mesh") {
      cfg.topology.kind = core::TopologySpec::Kind::kMeshTorus;
    } else if (kind == "internet") {
      cfg.topology.kind = core::TopologySpec::Kind::kInternetLike;
    } else if (kind == "line") {
      cfg.topology.kind = core::TopologySpec::Kind::kLine;
    } else if (kind == "ring") {
      cfg.topology.kind = core::TopologySpec::Kind::kRing;
    } else if (kind == "clique") {
      cfg.topology.kind = core::TopologySpec::Kind::kClique;
    } else if (kind == "random") {
      cfg.topology.kind = core::TopologySpec::Kind::kRandom;
    } else {
      t.fail("topology 'kind' must be one of mesh, internet, line, ring, "
             "clique, random");
    }
    // Sanity caps keep one hostile job from monopolizing the daemon; bigger
    // studies belong in the batch tools.
    cfg.topology.width = static_cast<int>(t.get_int("width", 10, 1, 512));
    cfg.topology.height = static_cast<int>(t.get_int("height", 10, 1, 512));
    cfg.topology.nodes = static_cast<int>(t.get_int("nodes", 100, 2, 20000));
    t.reject_unknown();
    if (!t.ok()) {
      f.fail("topology: " + t.error());
      return false;
    }
  }

  cfg.pulses = static_cast<int>(f.get_int("pulses", 1, 0, 1000));
  cfg.flap_interval_s = f.get_double("interval_s", 60.0);
  cfg.seed = static_cast<std::uint64_t>(
      f.get_int("seed", 1, 0, 9007199254740992LL));
  if (!parse_damping(f, &cfg.damping)) return false;
  cfg.rcn = f.get_bool("rcn", false);
  cfg.deployment = f.get_double("deployment", 1.0);
  cfg.timing.mrai_s = f.get_double("mrai_s", cfg.timing.mrai_s);

  const std::string policy = f.get_string("policy", "shortest-path");
  if (policy == "no-valley") {
    cfg.policy = core::PolicyKind::kNoValley;
  } else if (policy != "shortest-path") {
    f.fail("'policy' must be shortest-path or no-valley");
    return false;
  }

  spec->shards = static_cast<int>(f.get_int("shards", 0, 0, 64));

  if (f.has("faults")) {
    const std::string script = f.get_string("faults", "");
    try {
      fault::FaultSchedule::parse(script);  // validate the grammar up front
    } catch (const std::invalid_argument& e) {
      f.fail(std::string("faults: ") + e.what());
      return false;
    }
    fault::FaultPlan plan;
    plan.script = script;
    cfg.faults = std::move(plan);
  }

  if (!f.ok()) return false;

  if (!(cfg.flap_interval_s > 0) || !std::isfinite(cfg.flap_interval_s)) {
    f.fail("'interval_s' must be a positive finite number");
    return false;
  }
  if (!(cfg.deployment >= 0 && cfg.deployment <= 1)) {
    f.fail("'deployment' must be in [0, 1]");
    return false;
  }
  if (!(cfg.timing.mrai_s >= 0) || !std::isfinite(cfg.timing.mrai_s)) {
    f.fail("'mrai_s' must be a non-negative finite number");
    return false;
  }
  return true;
}

bool parse_full_table(Fields& f, JobSpec* spec) {
  core::FullTableConfig& cfg = spec->full_table;
  cfg.prefixes = static_cast<std::size_t>(
      f.get_int("prefixes", 1000, 1, 2000000));
  cfg.alpha = f.get_double("alpha", 1.0);
  cfg.events = static_cast<std::uint64_t>(
      f.get_int("events", 2000, 0, 5000000));
  cfg.event_interval_s = f.get_double("event_interval_s", 0.05);
  cfg.routers = static_cast<int>(f.get_int("routers", 4, 2, 1024));
  cfg.seed = static_cast<std::uint64_t>(
      f.get_int("seed", 1, 0, 9007199254740992LL));
  cfg.samples = static_cast<std::size_t>(f.get_int("samples", 64, 1, 65536));
  cfg.shards = static_cast<int>(f.get_int("shards", 0, 0, 64));
  if (!parse_damping(f, &cfg.damping)) return false;
  return f.ok();
}

void append_output(std::string& out, bool& first, const std::string& name,
                   const std::string& raw_json) {
  out += first ? "" : ",";
  first = false;
  out += '"';
  out += name;
  out += "\":";
  out += raw_json;
}

/// `json` without the whitespace between its tokens: the same value on one
/// line, numbers and member order untouched, so a pretty-printed artifact
/// can ride in a newline-framed reply.
std::string one_line(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      escaped = c == '\\';
      in_string = c != '"';
    } else if (c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      continue;
    } else if (c == '"') {
      in_string = true;
    }
    out += c;
  }
  return out;
}

std::string telemetry_output(const std::string& jsonl,
                             const std::string& summary) {
  std::string out = "{\"jsonl\":\"";
  out += Json::escape(jsonl);
  out += "\",\"summary\":";
  out += summary.empty() ? "null" : summary;
  out += '}';
  return out;
}

}  // namespace

std::string JobSpec::key_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key()));
  return buf;
}

std::optional<JobSpec> parse_job(const Json& job, std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return std::nullopt;
  };
  if (!job.is_object()) return fail("'job' must be an object");

  JobSpec spec;
  Fields f(job.as_object());

  const std::string kind = f.get_string("kind", "experiment");
  if (kind == "experiment") {
    spec.kind = JobSpec::Kind::kExperiment;
  } else if (kind == "full_table") {
    spec.kind = JobSpec::Kind::kFullTable;
  } else {
    return fail("'kind' must be experiment or full_table");
  }

  if (!parse_outputs(f, &spec)) return fail(f.error());

  // The optional analytics knobs live on both configs; read them once.
  const double gap = f.get_double(
      "stability_gap_s", obs::StabilityTracker::kDefaultGapS);
  const double telemetry_s = f.get_double("telemetry_period_s", 0.0);

  const bool parsed = spec.kind == JobSpec::Kind::kExperiment
                          ? parse_experiment(f, &spec)
                          : parse_full_table(f, &spec);
  if (!parsed) return fail(f.error());
  f.reject_unknown();
  if (!f.ok()) return fail(f.error());

  if (spec.kind == JobSpec::Kind::kFullTable && spec.want_result) {
    return fail("output 'result' is experiment-only (full-table runs report "
                "through their scorecard)");
  }
  if (spec.want_telemetry && !(telemetry_s > 0)) {
    return fail("output 'telemetry' requires telemetry_period_s > 0");
  }

  const bool sharded_experiment =
      spec.kind == JobSpec::Kind::kExperiment &&
      (spec.shards >= 1 || spec.want_scorecard);
  if (sharded_experiment && spec.experiment.faults) {
    return fail("'faults' is serial-only: it cannot combine with 'shards' or "
                "the 'scorecard' output (the sharded driver rejects fault "
                "injection)");
  }

  // Route the knobs into whichever config runs, then let the shared
  // validators police them with the same messages every driver uses.
  try {
    core::validate_stability_gap(spec.want_stability, gap, "svc");
    core::validate_telemetry(telemetry_s, 0.0, "svc");
    if (spec.kind == JobSpec::Kind::kExperiment) {
      spec.experiment.collect_metrics = spec.want_metrics;
      spec.experiment.collect_stability = spec.want_stability;
      spec.experiment.stability_gap_s = gap;
      spec.experiment.telemetry_period_s = spec.want_telemetry ? telemetry_s : 0;
      spec.experiment.validate();
    } else {
      spec.full_table.collect_stability = spec.want_stability;
      spec.full_table.stability_gap_s = gap;
      spec.full_table.telemetry_period_s = spec.want_telemetry ? telemetry_s : 0;
      spec.full_table.validate();
    }
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }

  spec.canonical = job.dump();
  return spec;
}

std::string run_job(const JobSpec& spec) {
  std::string outputs;
  bool first = true;
  // The requested outputs of whichever driver ran, in one order; `result`
  // and `scorecard` are empty where the driver has none or none was asked.
  const auto emit = [&](const auto& res, const std::string& result,
                        const std::string& scorecard) {
    if (spec.want_metrics) {
      append_output(outputs, first, "metrics", res.metrics.json());
    }
    if (!result.empty()) append_output(outputs, first, "result", result);
    if (!scorecard.empty()) {
      append_output(outputs, first, "scorecard", scorecard);
    }
    if (spec.want_stability && res.stability) {
      append_output(outputs, first, "stability",
                    res.stability->summary_json());
    }
    if (spec.want_telemetry) {
      append_output(outputs, first, "telemetry",
                    telemetry_output(res.telemetry_jsonl,
                                     res.telemetry_summary));
    }
  };
  // `core::result_json` is pretty-printed for files and terminals.
  const auto result_of = [&](const core::ExperimentResult& res) {
    return spec.want_result ? one_line(core::result_json(res)) : "";
  };

  const bool full_table = spec.kind == JobSpec::Kind::kFullTable;
  if (full_table) {
    const core::FullTableResult res = core::run_full_table(spec.full_table);
    emit(res, "", spec.want_scorecard ? res.scorecard() : "");
  } else if (spec.shards >= 1 || spec.want_scorecard) {
    // The experiment scorecard is defined by the sharded driver (its
    // shard-count-invariant serialization); shards=0 runs it serially.
    const core::ShardedExperimentResult sr = core::run_sharded_experiment(
        spec.experiment, spec.shards >= 1 ? spec.shards : 1);
    emit(sr.base, result_of(sr.base),
         spec.want_scorecard ? sr.scorecard() : "");
  } else {
    const core::ExperimentResult res = core::run_experiment(spec.experiment);
    emit(res, result_of(res), "");
  }

  std::string payload = "{\"job\":\"";
  payload += spec.key_hex();
  payload += "\",\"kind\":\"";
  payload += full_table ? "full_table" : "experiment";
  payload += "\",\"outputs\":{";
  payload += outputs;
  payload += "}}";
  return payload;
}

}  // namespace rfdnet::svc
