// JobSpec decoding unit tests: strict member validation, canonicalization
// into the content address, and routing of the shared analytics knobs.

#include "svc/request.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/fnv1a.hpp"
#include "core/sharded.hpp"

namespace rfdnet::svc {
namespace {

std::optional<JobSpec> parse_text(const std::string& text,
                                  std::string* error = nullptr) {
  std::string parse_error;
  const auto j = Json::parse(text, &parse_error);
  EXPECT_TRUE(j) << parse_error;
  if (!j) return std::nullopt;
  return parse_job(*j, error);
}

TEST(SvcRequest, DefaultsAndCanonicalKey) {
  const auto spec = parse_text("{}");
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->kind, JobSpec::Kind::kExperiment);
  EXPECT_TRUE(spec->want_scorecard);  // the default output
  EXPECT_FALSE(spec->want_result);
  EXPECT_EQ(spec->canonical, "{}");
  EXPECT_EQ(spec->key(), core::fnv1a("{}"));
  EXPECT_EQ(spec->key_hex().size(), 16u);
}

TEST(SvcRequest, EquivalentTextsShareOneCanonicalForm) {
  const auto a = parse_text("{\"pulses\":2,\"seed\":9}");
  const auto b = parse_text("{ \"seed\" : 9.0 , \"pulses\" : 2 }");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->canonical, b->canonical);
  EXPECT_EQ(a->key_hex(), b->key_hex());
  // Spelling out a default is a *different* description by design.
  const auto c = parse_text("{\"pulses\":2,\"seed\":9,\"rcn\":false}");
  ASSERT_TRUE(c);
  EXPECT_NE(c->canonical, a->canonical);
}

TEST(SvcRequest, FieldsReachTheConfig) {
  const auto spec = parse_text(
      "{\"topology\":{\"kind\":\"internet\",\"nodes\":208},\"pulses\":3,"
      "\"interval_s\":45.5,\"seed\":77,\"params\":\"juniper\",\"rcn\":true,"
      "\"deployment\":0.5,\"policy\":\"no-valley\",\"mrai_s\":15,"
      "\"shards\":4,\"outputs\":[\"scorecard\",\"stability\"],"
      "\"stability_gap_s\":12.5}");
  ASSERT_TRUE(spec);
  const core::ExperimentConfig& cfg = spec->experiment;
  EXPECT_EQ(cfg.topology.kind, core::TopologySpec::Kind::kInternetLike);
  EXPECT_EQ(cfg.topology.nodes, 208);
  EXPECT_EQ(cfg.pulses, 3);
  EXPECT_DOUBLE_EQ(cfg.flap_interval_s, 45.5);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_TRUE(cfg.damping);
  EXPECT_TRUE(cfg.rcn);
  EXPECT_DOUBLE_EQ(cfg.deployment, 0.5);
  EXPECT_EQ(cfg.policy, core::PolicyKind::kNoValley);
  EXPECT_DOUBLE_EQ(cfg.timing.mrai_s, 15.0);
  EXPECT_EQ(spec->shards, 4);
  EXPECT_TRUE(spec->want_stability);
  EXPECT_TRUE(cfg.collect_stability);
  EXPECT_DOUBLE_EQ(cfg.stability_gap_s, 12.5);
}

TEST(SvcRequest, FullTableFields) {
  const auto spec = parse_text(
      "{\"kind\":\"full_table\",\"prefixes\":500,\"events\":1000,"
      "\"routers\":6,\"alpha\":0.8,\"shards\":2,\"params\":\"none\","
      "\"outputs\":[\"scorecard\",\"telemetry\"],\"telemetry_period_s\":5}");
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->kind, JobSpec::Kind::kFullTable);
  const core::FullTableConfig& cfg = spec->full_table;
  EXPECT_EQ(cfg.prefixes, 500u);
  EXPECT_EQ(cfg.events, 1000u);
  EXPECT_EQ(cfg.routers, 6);
  EXPECT_DOUBLE_EQ(cfg.alpha, 0.8);
  EXPECT_EQ(cfg.shards, 2);
  EXPECT_FALSE(cfg.damping);
  EXPECT_TRUE(spec->want_telemetry);
  EXPECT_DOUBLE_EQ(cfg.telemetry_period_s, 5.0);
}

TEST(SvcRequest, RejectsBadJobs) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::string error;
    EXPECT_FALSE(parse_text(text, &error)) << text;
    EXPECT_NE(error.find(needle), std::string::npos)
        << text << " -> " << error;
  };
  expect_error("{\"kind\":\"magic\"}", "kind");
  expect_error("{\"bogus\":1}", "unknown member 'bogus'");
  expect_error("{\"topology\":{\"nodes\":\"many\"}}", "integer");
  expect_error("{\"topology\":{\"weight\":3}}", "unknown member 'weight'");
  expect_error("{\"pulses\":2.5}", "integer");
  expect_error("{\"pulses\":-1}", "out of range");
  expect_error("{\"seed\":\"abc\"}", "integer");
  expect_error("{\"interval_s\":0}", "interval_s");
  expect_error("{\"deployment\":1.5}", "deployment");
  expect_error("{\"params\":\"huawei\"}", "params");
  expect_error("{\"policy\":\"valley-free\"}", "policy");
  expect_error("{\"outputs\":[]}", "outputs");
  expect_error("{\"outputs\":[\"csv\"]}", "unknown output 'csv'");
  expect_error("{\"outputs\":[\"stability\"],\"stability_gap_s\":0}",
               "stability gap");
  expect_error("{\"outputs\":[\"telemetry\"]}", "telemetry_period_s");
  expect_error("{\"faults\":\"not a schedule\"}", "faults");
  expect_error("{\"faults\":\"@60 link-flap 2-3 for 30\",\"shards\":2}",
               "serial-only");
  expect_error(
      "{\"faults\":\"@60 link-flap 2-3 for 30\",\"outputs\":[\"scorecard\"]}",
      "serial-only");
  expect_error("{\"kind\":\"full_table\",\"outputs\":[\"result\"]}",
               "experiment-only");
  expect_error("{\"kind\":\"full_table\",\"routers\":1}", "out of range");
  // Finite spans the microsecond clock cannot hold.
  expect_error("{\"mrai_s\":1e300}", "mrai_s");
  expect_error("{\"pulses\":2,\"interval_s\":1e300}", "flap_interval_s");
  expect_error("{\"kind\":\"full_table\",\"event_interval_s\":1e300}",
               "event_interval_s");

  // Positive control: faults are legal on a serial experiment.
  const auto ok = parse_text(
      "{\"faults\":\"@60 link-flap 2-3 for 30\",\"outputs\":[\"result\"]}");
  ASSERT_TRUE(ok);
  EXPECT_TRUE(ok->experiment.faults.has_value());
}

TEST(SvcRequest, RunJobPayloadIsDeterministic) {
  const auto spec = parse_text(
      "{\"topology\":{\"kind\":\"mesh\",\"width\":3,\"height\":3},"
      "\"pulses\":1,\"seed\":3,\"outputs\":[\"result\",\"scorecard\"]}");
  ASSERT_TRUE(spec);
  const std::string p1 = run_job(*spec);
  const std::string p2 = run_job(*spec);
  EXPECT_EQ(p1, p2);  // byte-identical recompute
  const auto j = Json::parse(p1);
  ASSERT_TRUE(j) << p1.substr(0, 200);
  EXPECT_EQ(j->find("job")->as_string(), spec->key_hex());
  EXPECT_EQ(j->find("kind")->as_string(), "experiment");
  ASSERT_TRUE(j->find("outputs"));
  EXPECT_TRUE(j->find("outputs")->find("result"));
  EXPECT_TRUE(j->find("outputs")->find("scorecard"));
}

TEST(SvcRequest, ResultOutputIsTheResultJsonOnOneLine) {
  // Replies are newline-framed, and `core::result_json` is pretty-printed:
  // the payload must carry the same JSON value on one line, from the serial
  // driver (result alone) and from the keyed one (result with scorecard).
  const std::string job =
      "{\"topology\":{\"kind\":\"mesh\",\"width\":3,\"height\":3},"
      "\"pulses\":1,\"seed\":3,\"outputs\":";
  for (const bool keyed : {false, true}) {
    SCOPED_TRACE(keyed ? "keyed" : "serial");
    const auto spec = parse_text(
        job + (keyed ? "[\"result\",\"scorecard\"]}" : "[\"result\"]}"));
    ASSERT_TRUE(spec);
    const std::string payload = run_job(*spec);
    EXPECT_EQ(payload.find('\n'), std::string::npos);
    const auto j = Json::parse(payload);
    ASSERT_TRUE(j) << payload.substr(0, 200);
    const Json* result = j->find("outputs")->find("result");
    ASSERT_TRUE(result);
    const std::string direct = core::result_json(
        keyed ? core::run_sharded_experiment(spec->experiment, 1).base
              : core::run_experiment(spec->experiment));
    ASSERT_NE(direct.find('\n'), std::string::npos);  // pretty-printed
    const auto want = Json::parse(direct);
    ASSERT_TRUE(want);
    EXPECT_EQ(result->dump(), want->dump());
  }
}

}  // namespace
}  // namespace rfdnet::svc
