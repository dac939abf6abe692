#include "obs/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
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

using Token = util::JsonReader::Token;

/// The first occurrence of one numeric member. A later duplicate is
/// ignored, as a first-match lookup in a document tree ignores it.
struct FirstNumber {
  bool seen = false;
  bool numeric = false;  ///< the first occurrence is a number
  double value = 0.0;

  [[nodiscard]] double or_zero() const noexcept {
    return numeric ? value : 0.0;
  }
};

/// What the checks read of one traceEvents entry: the first occurrence
/// of each member they name, keys and strings compared unescaped.
struct EventFields {
  bool name_seen = false;
  bool name_string = false;
  std::string name;
  bool phase_seen = false;
  bool phase_one_char = false;  ///< "ph" is a one-character string
  char phase = 0;
  bool args_seen = false;
  FirstNumber pid, tid, ts, dur;
  // Members of the first "args", when it is an object.
  FirstNumber job, worker, tenant, size, alpha, value;
};

/// A (pid, tid) track's open B/E depth, in first-seen order.
struct Track {
  double pid = 0.0;
  double tid = 0.0;
  std::size_t open = 0;
};

std::size_t index_arg(const FirstNumber& field, const char* key) {
  if (!field.numeric) return kNoIndex;
  NLDL_REQUIRE(is_index(field.value), "trace event " + bad_index(key));
  return static_cast<std::size_t>(field.value);
}

ValidationResult parse_failure(const util::PreconditionError& error) {
  ValidationResult result;
  result.ok = false;
  result.error = util::message_of(error);
  return result;
}

/// One pass over an exported Chrome trace that validates it, decodes it,
/// or both. A parse error propagates out of run(); the first schema
/// failure and the first decode failure are recorded and the pass reads
/// on, so that a later parse error still wins over both.
class TracePass {
 public:
  TracePass(std::string_view text, bool validate, bool decode) noexcept
      : reader_(text), validate_(validate), decode_(decode) {}

  void run() {
    const Token root = reader_.next();
    bool found = false;        // a "traceEvents" member, the first one...
    bool read_events = false;  // ...an array, read
    if (root == Token::kBeginObject) {
      while (reader_.next() != Token::kEndObject) {
        const bool first = !found && reader_.string() == "traceEvents";
        const Token token = reader_.next();
        found = found || first;
        if (first && token == Token::kBeginArray) {
          read_event_array();
          read_events = true;
        } else {
          reader_.skip(token);
        }
      }
    } else {
      reader_.skip(root);
    }
    if (validating()) {
      if (root != Token::kBeginObject) {
        document_failure("document root is not an object");
      } else if (!read_events) {
        document_failure("missing \"traceEvents\" array");
      }
    }
    decode([&] {
      NLDL_REQUIRE(root == Token::kBeginObject,
                   "trace document root is not an object");
      NLDL_REQUIRE(read_events,
                   "trace document has no \"traceEvents\" array");
    });
    (void)reader_.next();  // kEnd, or the trailing-characters error
  }

  ValidationResult validation;     ///< the verdict, when validating
  std::exception_ptr decode_error;  ///< the first decode failure
  std::vector<TraceEvent> events;  ///< the decoded stream, when decoding

 private:
  [[nodiscard]] bool validating() const noexcept {
    return validate_ && validation.ok;
  }
  /// A failed validation discards the decode, so decoding stops with it.
  [[nodiscard]] bool decoding() const noexcept {
    return decode_ && decode_error == nullptr && validation.ok;
  }

  void document_failure(const char* what) {
    validation = ValidationResult{};
    validation.ok = false;
    validation.error = what;
  }

  /// Run one decode step, recording the first PreconditionError it
  /// throws. Parse errors never pass through here: a step reads no text.
  template <class Step>
  void decode(const Step& step) {
    if (!decoding()) return;
    try {
      step();
    } catch (const util::PreconditionError&) {
      decode_error = std::current_exception();
    }
  }

  void read_event_array() {
    std::size_t index = 0;
    for (Token entry = reader_.next(); entry != Token::kEndArray;
         entry = reader_.next(), ++index) {
      const bool object = entry == Token::kBeginObject;
      if (validating() && !object) validation = fail(index, "not an object");
      decode([object] {
        NLDL_REQUIRE(object, "trace event is not an object");
      });
      if (object && (validating() || decoding())) {
        read_fields();
        if (validating()) validate_event(index);
        decode([this] { decode_event(); });
      } else {
        reader_.skip(entry);
      }
    }
    if (validating()) {
      for (const Track& track : tracks_) {
        if (track.open != 0) {
          validation.ok = false;
          validation.error = "track pid=" + util::json_number(track.pid) +
                             " tid=" + util::json_number(track.tid) +
                             " has " + std::to_string(track.open) +
                             " unclosed \"B\" event(s)";
          break;
        }
      }
    }
    decode([this] {
      NLDL_REQUIRE(open_jobs_.empty(), "unclosed \"B\" event in trace");
    });
  }

  /// Read the first occurrence of `field` from the value starting at
  /// `token`, then skip the value.
  void read_number(FirstNumber* field, Token token) {
    if (field != nullptr && !field->seen) {
      field->seen = true;
      field->numeric = token == Token::kNumber;
      if (field->numeric) field->value = reader_.number();
    }
    reader_.skip(token);
  }

  /// Fill fields_ from one event object, its kBeginObject just read.
  void read_fields() {
    fields_ = EventFields{};
    EventFields& e = fields_;
    while (reader_.next() != Token::kEndObject) {
      const std::string_view key = reader_.string();
      if (key == "name" && !e.name_seen) {
        e.name_seen = true;
        const Token token = reader_.next();
        e.name_string = token == Token::kString;
        if (e.name_string) e.name = reader_.string();
        reader_.skip(token);
      } else if (key == "ph" && !e.phase_seen) {
        e.phase_seen = true;
        const Token token = reader_.next();
        e.phase_one_char =
            token == Token::kString && reader_.string().size() == 1;
        if (e.phase_one_char) e.phase = reader_.string()[0];
        reader_.skip(token);
      } else if (key == "args" && !e.args_seen) {
        e.args_seen = true;
        const Token token = reader_.next();
        if (token == Token::kBeginObject) {
          read_args();
        } else {
          reader_.skip(token);
        }
      } else {
        FirstNumber* field = key == "pid"   ? &e.pid
                             : key == "tid" ? &e.tid
                             : key == "ts"  ? &e.ts
                             : key == "dur" ? &e.dur
                                            : nullptr;
        read_number(field, reader_.next());
      }
    }
  }

  void read_args() {
    EventFields& e = fields_;
    while (reader_.next() != Token::kEndObject) {
      const std::string_view key = reader_.string();
      FirstNumber* field = key == "job"      ? &e.job
                           : key == "worker" ? &e.worker
                           : key == "tenant" ? &e.tenant
                           : key == "size"   ? &e.size
                           : key == "alpha"  ? &e.alpha
                           : key == "value"  ? &e.value
                                             : nullptr;
      read_number(field, reader_.next());
    }
  }

  std::size_t& track_depth(double pid, double tid) {
    const auto [at, inserted] =
        track_index_.try_emplace({pid, tid}, tracks_.size());
    if (inserted) tracks_.push_back({pid, tid, 0});
    return tracks_[at->second].open;
  }

  void validate_event(std::size_t i) {
    const EventFields& e = fields_;
    if (!e.name_string) {
      validation = fail(i, "missing string \"name\"");
      return;
    }
    if (!e.phase_one_char) {
      validation = fail(i, "missing one-character \"ph\"");
      return;
    }
    const char phase = e.phase;
    if (phase != 'M' && phase != 'X' && phase != 'B' && phase != 'E' &&
        phase != 'i' && phase != 'C' && phase != 's' && phase != 't' &&
        phase != 'f') {
      validation = fail(i, std::string("unsupported phase '") + phase + "'");
      return;
    }
    if (!e.pid.numeric) {
      validation = fail(i, "missing numeric \"pid\"");
      return;
    }
    if (!e.tid.numeric) {
      validation = fail(i, "missing numeric \"tid\"");
      return;
    }
    const std::pair<const char*, const FirstNumber*> indices[] = {
        {"job", &e.job}, {"worker", &e.worker}, {"tenant", &e.tenant}};
    for (const auto& [key, field] : indices) {
      if (field->numeric && !is_index(field->value)) {
        validation = fail(i, bad_index(key));
        return;
      }
    }
    ++validation.events;
    if (phase == 'M') return;  // metadata carries no timeline position

    if (!e.ts.numeric) {
      validation = fail(i, "missing numeric \"ts\"");
      return;
    }
    if (saw_timed_ && e.ts.value < last_ts_) {
      validation = fail(i, "timestamp " + util::json_number(e.ts.value) +
                               " decreases below " +
                               util::json_number(last_ts_));
      return;
    }
    last_ts_ = e.ts.value;
    saw_timed_ = true;

    if (phase == 'X') {
      if (!e.dur.numeric || e.dur.value < 0.0) {
        validation = fail(i, "\"X\" event without non-negative \"dur\"");
      }
    } else if (phase == 'B') {
      ++track_depth(e.pid.value, e.tid.value);
    } else if (phase == 'E') {
      std::size_t& open = track_depth(e.pid.value, e.tid.value);
      if (open == 0) {
        validation = fail(i, "\"E\" without matching \"B\" on track");
        return;
      }
      --open;
    }
  }

  void decode_event() {
    constexpr double kSecondsPerMicro = 1e-6;
    constexpr double kPathPid = 4.0;
    const EventFields& e = fields_;
    NLDL_REQUIRE(e.phase_one_char,
                 "trace event without a one-character \"ph\"");
    const char phase = e.phase;
    if (phase == 'M' || phase == 's' || phase == 't' || phase == 'f') {
      return;
    }
    if (e.pid.or_zero() == kPathPid) return;  // nldl-lint: allow(double-eq): pid is an integral JSON id parsed as double

    NLDL_REQUIRE(e.name_string, "trace event without a string \"name\"");
    EventKind kind = EventKind::kTransfer;
    NLDL_REQUIRE(event_kind_from_string(e.name, kind),
                 "trace event with unknown name '" + e.name + "'");

    TraceEvent event;
    event.kind = kind;
    event.start = e.ts.or_zero() * kSecondsPerMicro;
    event.end = event.start;
    if (phase == 'X') {
      event.end = event.start + e.dur.or_zero() * kSecondsPerMicro;
    }
    // Members of an absent or non-object "args" are never seen, so these
    // keep the TraceEvent defaults.
    event.worker = index_arg(e.worker, "worker");
    event.job = index_arg(e.job, "job");
    event.tenant = index_arg(e.tenant, "tenant");
    event.size = e.size.or_zero();
    event.alpha = e.alpha.or_zero();
    event.value = e.value.or_zero();

    if (phase == 'B') {
      NLDL_REQUIRE(kind == EventKind::kJob, "non-job \"B\" event");
      open_jobs_.emplace_back(e.tid.or_zero(), event);
    } else if (phase == 'E') {
      const double tid = e.tid.or_zero();
      bool matched = false;
      for (std::size_t i = open_jobs_.size(); i-- > 0;) {
        if (open_jobs_[i].first == tid) {  // nldl-lint: allow(double-eq): tid is an integral JSON id parsed as double
          TraceEvent job = open_jobs_[i].second;
          job.end = event.start;
          events.push_back(job);
          open_jobs_.erase(open_jobs_.begin() +
                           static_cast<std::ptrdiff_t>(i));
          matched = true;
          break;
        }
      }
      NLDL_REQUIRE(matched, "\"E\" event without a matching \"B\"");
    } else {
      events.push_back(event);
    }
  }

  util::JsonReader reader_;
  bool validate_;
  bool decode_;
  EventFields fields_;
  // Validation state.
  double last_ts_ = 0.0;
  bool saw_timed_ = false;
  std::map<std::pair<double, double>, std::size_t> track_index_;
  std::vector<Track> tracks_;
  // Decode state: open kJob B events per jobs-track tid, in open order.
  std::vector<std::pair<double, TraceEvent>> open_jobs_;
};

}  // namespace

ValidationResult validate_chrome_trace_text(std::string_view text) {
  TracePass pass(text, /*validate=*/true, /*decode=*/false);
  try {
    pass.run();
  } catch (const util::PreconditionError& error) {
    return parse_failure(error);
  }
  return pass.validation;
}

std::vector<TraceEvent> events_from_chrome_trace(
    std::string_view text, ValidationResult* validation) {
  TracePass pass(text, /*validate=*/validation != nullptr, /*decode=*/true);
  try {
    pass.run();
  } catch (const util::PreconditionError& error) {
    if (validation == nullptr) throw;
    *validation = parse_failure(error);
    return {};
  }
  if (validation != nullptr) {
    *validation = pass.validation;
    if (!*validation) return {};
  }
  if (pass.decode_error != nullptr) std::rethrow_exception(pass.decode_error);
  return std::move(pass.events);
}

ValidationResult validate_metrics_json(const util::JsonValue& document) {
  ValidationResult result;
  if (!document.is_object()) {
    result.ok = false;
    result.error = "metrics document root is not an object";
    return result;
  }
  for (const auto& [key, value] : document.object) {
    if (!value.is_number()) {
      result.ok = false;
      result.error = "metric '" + key + "': not a number";
      return result;
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
