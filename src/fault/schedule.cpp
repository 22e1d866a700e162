#include "fault/schedule.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "sim/time.hpp"

namespace rfdnet::fault {

namespace {

// Compact numeric literal for the schedule grammar. %.9g keeps short
// hand-written values short ("0.1", "120") and is stable under a second
// parse/print round trip.
std::string fmt_num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

[[noreturn]] void parse_fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("fault schedule: " + what + " (at offset " +
                              std::to_string(pos) + ")");
}

/// Minimal hand tokenizer over one statement of the grammar.
class Cursor {
 public:
  Cursor(std::string_view text, std::size_t base) : text_(text), base_(base) {}

  void skip_ws() {
    while (i_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[i_]))) ++i_;
  }
  bool done() {
    skip_ws();
    return i_ >= text_.size();
  }
  std::size_t offset() const { return base_ + i_; }

  bool eat(char c) {
    skip_ws();
    if (i_ < text_.size() && text_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  /// Next run of token characters (alnum, '-', '_', '.', '='); empty at end.
  /// '-' is a token character so "link-down" and "2-3" each lex as one word.
  std::string_view word() {
    skip_ws();
    const std::size_t start = i_;
    while (i_ < text_.size()) {
      const char c = text_[i_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
          c == '.' || c == '=' || c == '+') {
        ++i_;
      } else {
        break;
      }
    }
    return text_.substr(start, i_ - start);
  }

  double number() {
    skip_ws();
    const std::size_t start = i_;
    const std::string w{word()};
    if (w.empty()) parse_fail(base_ + start, "expected a number");
    try {
      std::size_t used = 0;
      const double v = std::stod(w, &used);
      if (used != w.size()) throw std::invalid_argument(w);
      return v;
    } catch (const std::exception&) {
      parse_fail(base_ + start, "bad number '" + w + "'");
    }
  }

 private:
  std::string_view text_;
  std::size_t base_;
  std::size_t i_ = 0;
};

/// Parses "U-V" into endpoints.
void parse_link(std::string_view w, std::size_t pos, FaultEvent& ev) {
  const auto dash = w.find('-');
  if (dash == std::string_view::npos || dash == 0 || dash + 1 >= w.size()) {
    parse_fail(pos, "expected a link 'U-V', got '" + std::string(w) + "'");
  }
  try {
    ev.u = static_cast<net::NodeId>(std::stoul(std::string(w.substr(0, dash))));
    ev.v = static_cast<net::NodeId>(std::stoul(std::string(w.substr(dash + 1))));
  } catch (const std::exception&) {
    parse_fail(pos, "bad link endpoints '" + std::string(w) + "'");
  }
}

FaultEvent parse_statement(std::string_view stmt, std::size_t base) {
  Cursor cur(stmt, base);
  FaultEvent ev;
  if (!cur.eat('@')) parse_fail(cur.offset(), "statement must start with '@TIME'");
  ev.t_s = cur.number();

  const std::size_t kind_pos = cur.offset();
  const std::string kind{cur.word()};
  bool need_link = false;
  bool link_optional = false;
  bool need_node = false;
  if (kind == "link-down") {
    ev.kind = FaultKind::kLinkDown;
    need_link = true;
  } else if (kind == "link-up") {
    ev.kind = FaultKind::kLinkUp;
    need_link = true;
  } else if (kind == "link-flap") {
    ev.kind = FaultKind::kLinkFlap;
    need_link = true;
  } else if (kind == "reset") {
    ev.kind = FaultKind::kSessionReset;
    need_link = true;
  } else if (kind == "restart") {
    ev.kind = FaultKind::kRouterRestart;
    need_node = true;
  } else if (kind == "perturb") {
    ev.kind = FaultKind::kPerturb;
    link_optional = true;
  } else {
    parse_fail(kind_pos, "unknown fault kind '" + kind + "'");
  }

  if (need_node) {
    ev.u = static_cast<net::NodeId>(cur.number());
    ev.v = ev.u;
  } else if (need_link || link_optional) {
    const std::size_t pos = cur.offset();
    const std::string_view w = cur.word();
    if (w == "for") {
      // "perturb for DUR ..." — global window, no link argument.
      if (!link_optional) parse_fail(pos, "expected a link 'U-V'");
      ev.duration_s = cur.number();
    } else if (!w.empty()) {
      parse_link(w, pos, ev);
    } else if (!link_optional) {
      parse_fail(pos, "expected a link 'U-V'");
    }
  }

  // Trailing clauses: "for DUR", "drop=P", "delay=D" (any order).
  while (!cur.done()) {
    const std::size_t pos = cur.offset();
    const std::string w{cur.word()};
    if (w == "for") {
      ev.duration_s = cur.number();
    } else if (w.rfind("drop=", 0) == 0 || w.rfind("delay=", 0) == 0) {
      if (ev.kind != FaultKind::kPerturb) {
        parse_fail(pos, "'" + w + "' is only valid for perturb");
      }
      const auto eq = w.find('=');
      double val = 0.0;
      try {
        std::size_t used = 0;
        val = std::stod(w.substr(eq + 1), &used);
        if (used != w.size() - eq - 1) throw std::invalid_argument(w);
      } catch (const std::exception&) {
        parse_fail(pos, "bad value in '" + w + "'");
      }
      if (w[1] == 'r') {  // drop=
        ev.drop_prob = val;
      } else {
        ev.extra_delay_s = val;
      }
    } else if (w.empty()) {
      parse_fail(pos, "unexpected character '" + std::string(1, stmt[pos - base]) + "'");
    } else {
      parse_fail(pos, "unexpected token '" + w + "'");
    }
  }
  return ev;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kSessionReset: return "reset";
    case FaultKind::kRouterRestart: return "restart";
    case FaultKind::kPerturb: return "perturb";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::string s = "@" + fmt_num(t_s) + " " + fault::to_string(kind);
  switch (kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      s += " " + std::to_string(u) + "-" + std::to_string(v);
      break;
    case FaultKind::kLinkFlap:
    case FaultKind::kSessionReset:
      s += " " + std::to_string(u) + "-" + std::to_string(v);
      s += " for " + fmt_num(duration_s);
      break;
    case FaultKind::kRouterRestart:
      s += " " + std::to_string(u);
      s += " for " + fmt_num(duration_s);
      break;
    case FaultKind::kPerturb:
      if (u != net::kInvalidNode) {
        s += " " + std::to_string(u) + "-" + std::to_string(v);
      }
      s += " for " + fmt_num(duration_s);
      if (drop_prob > 0.0) s += " drop=" + fmt_num(drop_prob);
      if (extra_delay_s > 0.0) s += " delay=" + fmt_num(extra_delay_s);
      break;
  }
  return s;
}

double FaultSchedule::stop_time_s() const {
  double stop = 0.0;
  for (const FaultEvent& ev : events) {
    stop = std::max(stop, ev.t_s + ev.duration_s);
  }
  return stop;
}

void FaultSchedule::validate() const {
  double prev = 0.0;
  for (const FaultEvent& ev : events) {
    if (!std::isfinite(ev.t_s) || ev.t_s < 0.0) {
      throw std::invalid_argument("fault schedule: event time must be finite and >= 0");
    }
    if (ev.t_s < prev) {
      throw std::invalid_argument("fault schedule: events must be sorted by time");
    }
    prev = ev.t_s;
    if (!std::isfinite(ev.duration_s) || ev.duration_s < 0.0) {
      throw std::invalid_argument("fault schedule: duration must be finite and >= 0");
    }
    if (ev.drop_prob < 0.0 || ev.drop_prob > 1.0) {
      throw std::invalid_argument("fault schedule: drop probability must be in [0, 1]");
    }
    if (!std::isfinite(ev.extra_delay_s) || ev.extra_delay_s < 0.0) {
      throw std::invalid_argument("fault schedule: extra delay must be finite and >= 0");
    }
    if (!sim::span_fits_clock(ev.t_s + ev.duration_s) ||
        !sim::span_fits_clock(ev.extra_delay_s)) {
      throw std::invalid_argument(
          "fault schedule: time + duration and delay must be at most 1e9 s");
    }
    const bool link_fault = ev.kind == FaultKind::kLinkDown ||
                            ev.kind == FaultKind::kLinkUp ||
                            ev.kind == FaultKind::kLinkFlap ||
                            ev.kind == FaultKind::kSessionReset;
    if (link_fault) {
      if (ev.u == net::kInvalidNode || ev.v == net::kInvalidNode || ev.u == ev.v) {
        throw std::invalid_argument("fault schedule: link fault needs two distinct endpoints");
      }
    }
    if (ev.kind == FaultKind::kRouterRestart && ev.u == net::kInvalidNode) {
      throw std::invalid_argument("fault schedule: restart needs a node");
    }
    if (ev.kind == FaultKind::kPerturb &&
        ev.drop_prob == 0.0 && ev.extra_delay_s == 0.0) {
      throw std::invalid_argument("fault schedule: perturb needs drop= and/or delay=");
    }
  }
}

std::string FaultSchedule::to_string() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    if (!out.empty()) out += "; ";
    out += ev.to_string();
  }
  return out;
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  FaultSchedule sched;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    std::string_view stmt{text.data() + start, end - start};
    // Skip blank statements (trailing ';' etc).
    const bool blank = stmt.find_first_not_of(" \t\r\n") == std::string_view::npos;
    if (!blank) sched.events.push_back(parse_statement(stmt, start));
    if (end == text.size()) break;
    start = end + 1;
  }
  std::stable_sort(sched.events.begin(), sched.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.t_s < b.t_s; });
  sched.validate();
  return sched;
}

void StormOptions::validate() const {
  if (!(rate_per_s > 0.0) || !std::isfinite(rate_per_s)) {
    throw std::invalid_argument("StormOptions: rate_per_s must be > 0");
  }
  if (!(horizon_s > 0.0) || !std::isfinite(horizon_s)) {
    throw std::invalid_argument("StormOptions: horizon_s must be > 0");
  }
  if (!(mean_down_s > 0.0) || !std::isfinite(mean_down_s)) {
    throw std::invalid_argument("StormOptions: mean_down_s must be > 0");
  }
  const double wsum = w_link_flap + w_session_reset + w_router_restart + w_perturb;
  if (w_link_flap < 0.0 || w_session_reset < 0.0 || w_router_restart < 0.0 ||
      w_perturb < 0.0 || !(wsum > 0.0)) {
    throw std::invalid_argument("StormOptions: mix weights must be >= 0 and not all zero");
  }
  if (drop_prob < 0.0 || drop_prob > 1.0) {
    throw std::invalid_argument("StormOptions: drop_prob must be in [0, 1]");
  }
  if (extra_delay_s < 0.0 || !std::isfinite(extra_delay_s)) {
    throw std::invalid_argument("StormOptions: extra_delay_s must be >= 0");
  }
  // The last outage starts before the horizon and lasts at most 37 means
  // (-ln 2^-53 ~ 36.7, the largest exponential draw), so every generated
  // schedule passes `FaultSchedule::validate`.
  if (!sim::span_fits_clock(horizon_s + 37.0 * mean_down_s) ||
      !sim::span_fits_clock(extra_delay_s)) {
    throw std::invalid_argument(
        "StormOptions: horizon_s + 37 x mean_down_s and extra_delay_s must be "
        "at most 1e9 s");
  }
}

FaultSchedule generate_storm(const net::Graph& g, const StormOptions& opt,
                             sim::Rng& rng,
                             const std::vector<net::NodeId>& spare) {
  opt.validate();
  const auto spared = [&spare](net::NodeId n) {
    return std::find(spare.begin(), spare.end(), n) != spare.end();
  };

  // Candidate targets, in canonical order so the draw sequence depends only
  // on (graph, options, rng state).
  std::vector<std::pair<net::NodeId, net::NodeId>> links;
  std::vector<net::NodeId> nodes;
  for (net::NodeId u = 0; u < g.node_count(); ++u) {
    if (!spared(u)) nodes.push_back(u);
    for (const auto& e : g.neighbors(u)) {
      if (u < e.neighbor && !spared(u) && !spared(e.neighbor)) {
        links.emplace_back(u, e.neighbor);
      }
    }
  }
  if (links.empty() || nodes.empty()) {
    throw std::invalid_argument("generate_storm: graph has no eligible targets");
  }

  const double wsum =
      opt.w_link_flap + opt.w_session_reset + opt.w_router_restart + opt.w_perturb;
  const auto exp_draw = [&rng](double mean) {
    // Inverse-CDF; uniform01() is in [0, 1), so the log argument stays > 0.
    return -std::log(1.0 - rng.uniform01()) * mean;
  };

  FaultSchedule sched;
  double t = 0.0;
  while (true) {
    t += exp_draw(1.0 / opt.rate_per_s);
    if (t >= opt.horizon_s) break;
    FaultEvent ev;
    ev.t_s = t;
    ev.duration_s = exp_draw(opt.mean_down_s);
    const double pick = rng.uniform(0.0, wsum);
    if (pick < opt.w_link_flap) {
      ev.kind = FaultKind::kLinkFlap;
    } else if (pick < opt.w_link_flap + opt.w_session_reset) {
      ev.kind = FaultKind::kSessionReset;
    } else if (pick < opt.w_link_flap + opt.w_session_reset + opt.w_router_restart) {
      ev.kind = FaultKind::kRouterRestart;
    } else {
      ev.kind = FaultKind::kPerturb;
    }
    switch (ev.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kSessionReset: {
        const auto [u, v] = links[rng.uniform_index(links.size())];
        ev.u = u;
        ev.v = v;
        break;
      }
      case FaultKind::kRouterRestart:
        ev.u = nodes[rng.uniform_index(nodes.size())];
        ev.v = ev.u;
        break;
      case FaultKind::kPerturb:
        ev.drop_prob = opt.drop_prob;
        ev.extra_delay_s = opt.extra_delay_s;
        break;
      default:
        break;
    }
    if (ev.kind == FaultKind::kPerturb &&
        ev.drop_prob == 0.0 && ev.extra_delay_s == 0.0) {
      continue;  // storm configured with no perturbation effect: skip
    }
    sched.events.push_back(ev);
  }
  sched.validate();
  return sched;
}

FaultSchedule FaultPlan::materialize(const net::Graph& g, sim::Rng& rng,
                                     const std::vector<net::NodeId>& spare) const {
  if (script.has_value() == storm.has_value()) {
    throw std::invalid_argument("FaultPlan: exactly one of script/storm must be set");
  }
  if (script) return FaultSchedule::parse(*script);
  return generate_storm(g, *storm, rng, spare);
}

}  // namespace rfdnet::fault
