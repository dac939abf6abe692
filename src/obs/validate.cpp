#include "obs/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace nldl::obs {

namespace {

ValidationResult fail(std::size_t index, const std::string& what) {
  ValidationResult result;
  result.ok = false;
  result.error = "traceEvents[" + std::to_string(index) + "]: " + what;
  return result;
}

/// The args events_from_chrome_trace decodes into std::size_t indices.
constexpr const char* kIndexArgs[] = {"job", "worker", "tenant"};

/// An index arg is a JSON number; only a whole number in [0, 2^53), where
/// a double holds every integer exactly, converts to std::size_t. NaN and
/// infinities fail the range test.
bool is_index(double value) {
  constexpr double kTwoTo53 = 9007199254740992.0;
  double whole = 0.0;
  return value >= 0.0 && value < kTwoTo53 && std::modf(value, &whole) == 0.0;
}

std::string bad_index(const char* key) {
  return std::string("args \"") + key +
         "\" is not a whole number in [0, 2^53)";
}

}  // namespace

ValidationResult validate_chrome_trace(const util::JsonValue& document) {
  ValidationResult result;
  if (!document.is_object()) {
    result.ok = false;
    result.error = "document root is not an object";
    return result;
  }
  const util::JsonValue* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    result.ok = false;
    result.error = "missing \"traceEvents\" array";
    return result;
  }

  // Open B/E nesting depth per (pid, tid) track, insertion-ordered.
  std::vector<std::pair<std::pair<double, double>, std::size_t>> depth;
  const auto track_depth = [&depth](double pid,
                                    double tid) -> std::size_t& {
    for (auto& [key, open] : depth) {
      if (key.first == pid && key.second == tid) return open;  // nldl-lint: allow(double-eq): pid/tid are integral JSON ids parsed as double
    }
    depth.push_back({{pid, tid}, 0});
    return depth.back().second;
  };

  double last_ts = 0.0;
  bool saw_timed = false;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const util::JsonValue& event = events->array[i];
    if (!event.is_object()) return fail(i, "not an object");

    const util::JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string()) {
      return fail(i, "missing string \"name\"");
    }
    const util::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return fail(i, "missing one-character \"ph\"");
    }
    const char phase = ph->string[0];
    if (phase != 'M' && phase != 'X' && phase != 'B' && phase != 'E' &&
        phase != 'i' && phase != 'C' && phase != 's' && phase != 't' &&
        phase != 'f') {
      return fail(i, std::string("unsupported phase '") + phase + "'");
    }
    const util::JsonValue* pid = event.find("pid");
    const util::JsonValue* tid = event.find("tid");
    if (pid == nullptr || !pid->is_number()) {
      return fail(i, "missing numeric \"pid\"");
    }
    if (tid == nullptr || !tid->is_number()) {
      return fail(i, "missing numeric \"tid\"");
    }
    const util::JsonValue* args = event.find("args");
    if (args != nullptr && args->is_object()) {
      for (const char* key : kIndexArgs) {
        const util::JsonValue* index = args->find(key);
        if (index != nullptr && index->is_number() &&
            !is_index(index->number)) {
          return fail(i, bad_index(key));
        }
      }
    }
    ++result.events;
    if (phase == 'M') continue;  // metadata carries no timeline position

    const util::JsonValue* ts = event.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail(i, "missing numeric \"ts\"");
    }
    if (saw_timed && ts->number < last_ts) {
      return fail(i, "timestamp " + util::json_number(ts->number) +
                         " decreases below " + util::json_number(last_ts));
    }
    last_ts = ts->number;
    saw_timed = true;

    if (phase == 'X') {
      const util::JsonValue* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0.0) {
        return fail(i, "\"X\" event without non-negative \"dur\"");
      }
    } else if (phase == 'B') {
      ++track_depth(pid->number, tid->number);
    } else if (phase == 'E') {
      std::size_t& open = track_depth(pid->number, tid->number);
      if (open == 0) return fail(i, "\"E\" without matching \"B\" on track");
      --open;
    }
  }
  for (const auto& [key, open] : depth) {
    if (open != 0) {
      result.ok = false;
      result.error = "track pid=" + util::json_number(key.first) +
                     " tid=" + util::json_number(key.second) + " has " +
                     std::to_string(open) + " unclosed \"B\" event(s)";
      return result;
    }
  }
  return result;
}

ValidationResult validate_chrome_trace_text(std::string_view text) {
  try {
    return validate_chrome_trace(util::parse_json(text));
  } catch (const util::PreconditionError& error) {
    ValidationResult result;
    result.ok = false;
    result.error = error.what();
    return result;
  }
}

std::vector<TraceEvent> events_from_chrome_trace(
    const util::JsonValue& document) {
  NLDL_REQUIRE(document.is_object(), "trace document root is not an object");
  const util::JsonValue* entries = document.find("traceEvents");
  NLDL_REQUIRE(entries != nullptr && entries->is_array(),
               "trace document has no \"traceEvents\" array");

  constexpr double kSecondsPerMicro = 1e-6;
  constexpr double kPathPid = 4.0;
  const auto number_or = [](const util::JsonValue* node, double fallback) {
    return node != nullptr && node->is_number() ? node->number : fallback;
  };
  const auto index_arg = [](const util::JsonValue& args, const char* key) {
    const util::JsonValue* node = args.find(key);
    if (node == nullptr || !node->is_number()) return kNoIndex;
    NLDL_REQUIRE(is_index(node->number), "trace event " + bad_index(key));
    return static_cast<std::size_t>(node->number);
  };

  std::vector<TraceEvent> out;
  // Open kJob B events per jobs-track tid, in first-open order.
  std::vector<std::pair<double, TraceEvent>> open_jobs;
  for (const util::JsonValue& entry : entries->array) {
    NLDL_REQUIRE(entry.is_object(), "trace event is not an object");
    const util::JsonValue* ph = entry.find("ph");
    NLDL_REQUIRE(ph != nullptr && ph->is_string() && ph->string.size() == 1,
                 "trace event without a one-character \"ph\"");
    const char phase = ph->string[0];
    if (phase == 'M' || phase == 's' || phase == 't' || phase == 'f') {
      continue;
    }
    if (number_or(entry.find("pid"), 0.0) == kPathPid) continue;  // nldl-lint: allow(double-eq): pid is an integral JSON id parsed as double

    const util::JsonValue* name = entry.find("name");
    NLDL_REQUIRE(name != nullptr && name->is_string(),
                 "trace event without a string \"name\"");
    EventKind kind = EventKind::kTransfer;
    NLDL_REQUIRE(event_kind_from_string(name->string, kind),
                 "trace event with unknown name '" + name->string + "'");

    TraceEvent event;
    event.kind = kind;
    event.start = number_or(entry.find("ts"), 0.0) * kSecondsPerMicro;
    event.end = event.start;
    if (phase == 'X') {
      event.end =
          event.start + number_or(entry.find("dur"), 0.0) * kSecondsPerMicro;
    }
    const util::JsonValue* args = entry.find("args");
    if (args != nullptr && args->is_object()) {
      event.worker = index_arg(*args, "worker");
      event.job = index_arg(*args, "job");
      event.tenant = index_arg(*args, "tenant");
      event.size = number_or(args->find("size"), 0.0);
      event.alpha = number_or(args->find("alpha"), 0.0);
      event.value = number_or(args->find("value"), 0.0);
    }

    if (phase == 'B') {
      NLDL_REQUIRE(kind == EventKind::kJob, "non-job \"B\" event");
      open_jobs.emplace_back(number_or(entry.find("tid"), 0.0), event);
    } else if (phase == 'E') {
      const double tid = number_or(entry.find("tid"), 0.0);
      bool matched = false;
      for (std::size_t i = open_jobs.size(); i-- > 0;) {
        if (open_jobs[i].first == tid) {  // nldl-lint: allow(double-eq): tid is an integral JSON id parsed as double
          TraceEvent job = open_jobs[i].second;
          job.end = event.start;
          out.push_back(job);
          open_jobs.erase(open_jobs.begin() +
                          static_cast<std::ptrdiff_t>(i));
          matched = true;
          break;
        }
      }
      NLDL_REQUIRE(matched, "\"E\" event without a matching \"B\"");
    } else {
      out.push_back(event);
    }
  }
  NLDL_REQUIRE(open_jobs.empty(), "unclosed \"B\" event in trace");
  return out;
}

ValidationResult validate_metrics_json(const util::JsonValue& document) {
  ValidationResult result;
  if (!document.is_object()) {
    result.ok = false;
    result.error = "metrics document root is not an object";
    return result;
  }
  for (const auto& [key, value] : document.object) {
    const auto bad = [&result, &key](const std::string& what) {
      result.ok = false;
      result.error = "metric '" + key + "': " + what;
      return result;
    };
    if (value.is_number()) {
      ++result.events;
      continue;
    }
    if (!value.is_object()) return bad("neither a number nor a quantile");
    const util::JsonValue* q = value.find("q");
    if (q == nullptr || !q->is_number() || !(q->number > 0.0) ||
        !(q->number < 1.0)) {
      return bad("quantile without a \"q\" in (0, 1)");
    }
    const util::JsonValue* count = value.find("count");
    if (count == nullptr || !count->is_number() || count->number < 0.0) {
      return bad("quantile without a non-negative \"count\"");
    }
    const util::JsonValue* estimate = value.find("value");
    if (count->number > 0.0) {
      if (estimate == nullptr || !estimate->is_number()) {
        return bad("non-empty quantile without a numeric \"value\"");
      }
    } else if (estimate != nullptr) {
      return bad("empty quantile carries a \"value\"");
    }
    ++result.events;
  }
  return result;
}

namespace {

/// Walks two payload trees side by side, filling a PayloadComparison.
class PayloadDiffer {
 public:
  PayloadDiffer(double rel_tol, PayloadComparison& out)
      : rel_tol_(rel_tol), out_(out) {}

  void compare(const util::JsonValue& a, const util::JsonValue& b,
               const std::string& path) {
    if (a.kind != b.kind) {
      mismatch(path, a, b, "kind differs");
      return;
    }
    switch (a.kind) {
      case util::JsonValue::Kind::kNull:
        ++out_.leaves;
        return;
      case util::JsonValue::Kind::kBool:
        leaf(path, a, b, a.boolean == b.boolean, "boolean differs");
        return;
      case util::JsonValue::Kind::kString:
        leaf(path, a, b, a.string == b.string, "string differs");
        return;
      case util::JsonValue::Kind::kNumber:
        number(path, a, b);
        return;
      case util::JsonValue::Kind::kArray:
        array(path, a, b);
        return;
      case util::JsonValue::Kind::kObject:
        object(path, a, b);
        return;
    }
  }

 private:
  static std::string show(const util::JsonValue& v) {
    switch (v.kind) {
      case util::JsonValue::Kind::kNull:
        return "null";
      case util::JsonValue::Kind::kBool:
        return v.boolean ? "true" : "false";
      case util::JsonValue::Kind::kNumber:
        return util::json_number(v.number);
      case util::JsonValue::Kind::kString:
        return util::json_quote(v.string);
      case util::JsonValue::Kind::kArray:
        return std::to_string(v.array.size()) + " array elements";
      case util::JsonValue::Kind::kObject:
        return std::to_string(v.object.size()) + " object members";
    }
    return "?";
  }

  /// True for an integral value small enough to be a count: every double
  /// beyond 2^53 is integral, so those are compared as plain numbers.
  static bool countlike(double x) {
    return std::abs(x) <= 9007199254740992.0 && std::fmod(x, 1.0) == 0.0;
  }

  void mismatch(const std::string& path, const util::JsonValue& a,
                const util::JsonValue& b, const std::string& what) {
    out_.mismatches.push_back({path, show(a), show(b), what});
  }

  void leaf(const std::string& path, const util::JsonValue& a,
            const util::JsonValue& b, bool same, const std::string& what) {
    ++out_.leaves;
    if (same) return;
    ++out_.moved;
    mismatch(path, a, b, what);
  }

  void number(const std::string& path, const util::JsonValue& a,
              const util::JsonValue& b) {
    ++out_.leaves;
    const double x = a.number;
    const double y = b.number;
    if (!(x < y || y < x)) return;  // equal, including 0 and -0
    ++out_.moved;
    // The parser rejects non-finite numbers, so the scale is positive.
    const double relative =
        std::abs(x - y) / std::max(std::abs(x), std::abs(y));
    if (relative > out_.max_relative) {
      out_.max_relative = relative;
      out_.max_path = path;
    }
    const bool integer = countlike(x) && countlike(y);
    if (integer || relative > rel_tol_) {
      char what[48];
      std::snprintf(what, sizeof(what), "%srelative %.2e",
                    integer ? "integer, " : "", relative);
      out_.beyond.push_back({path, show(a), show(b), what});
    }
  }

  void array(const std::string& path, const util::JsonValue& a,
             const util::JsonValue& b) {
    const std::size_t common = std::min(a.array.size(), b.array.size());
    if (a.array.size() != b.array.size()) {
      mismatch(path, a, b, "array length differs");
    }
    for (std::size_t i = 0; i < common; ++i) {
      compare(a.array[i], b.array[i], path + "[" + std::to_string(i) + "]");
    }
  }

  void object(const std::string& path, const util::JsonValue& a,
              const util::JsonValue& b) {
    bool same_keys = a.object.size() == b.object.size();
    for (std::size_t i = 0; same_keys && i < a.object.size(); ++i) {
      same_keys = a.object[i].first == b.object[i].first;
    }
    if (same_keys) {
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        compare(a.object[i].second, b.object[i].second,
                path + "." + a.object[i].first);
      }
      return;
    }
    // Keys differ: report each one missing from either side, then compare
    // the members both have, by name.
    bool reported = false;
    for (const auto& [key, value] : a.object) {
      if (b.find(key) == nullptr) {
        out_.mismatches.push_back(
            {path + "." + key, show(value), "(absent)", "key missing"});
        reported = true;
      }
    }
    for (const auto& [key, value] : b.object) {
      if (a.find(key) == nullptr) {
        out_.mismatches.push_back(
            {path + "." + key, "(absent)", show(value), "key missing"});
        reported = true;
      }
    }
    if (!reported) mismatch(path, a, b, "key order differs");
    for (const auto& [key, value] : a.object) {
      if (const util::JsonValue* other = b.find(key)) {
        compare(value, *other, path + "." + key);
      }
    }
  }

  double rel_tol_;
  PayloadComparison& out_;
};

}  // namespace

PayloadComparison compare_deterministic_payload(const util::JsonValue& a,
                                                const util::JsonValue& b,
                                                double rel_tol) {
  NLDL_REQUIRE(std::isfinite(rel_tol) && rel_tol >= 0.0,
               "rel_tol must be finite and >= 0");
  PayloadComparison result;
  const util::JsonValue* payload_a = a.find("deterministic");
  const util::JsonValue* payload_b = b.find("deterministic");
  if (payload_a == nullptr || payload_b == nullptr) {
    result.mismatches.push_back(
        {"deterministic", payload_a == nullptr ? "(absent)" : "present",
         payload_b == nullptr ? "(absent)" : "present",
         "document without a \"deterministic\" payload"});
    return result;
  }
  PayloadDiffer(rel_tol, result).compare(*payload_a, *payload_b,
                                         "deterministic");
  return result;
}

}  // namespace nldl::obs
