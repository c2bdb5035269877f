#include "common/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <variant>

#include "common/error.hpp"

namespace phoenix {

Trace::Scope::Scope(Trace* t) noexcept {
#ifdef PHOENIX_DISABLE_TRACE
  (void)t;
#else
  prev_ = tl_current_;
  tl_current_ = t;
#endif
}

Trace::Scope::~Scope() {
#ifndef PHOENIX_DISABLE_TRACE
  tl_current_ = prev_;
#endif
}

void HistogramStats::observe(double value) {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  std::size_t b = 0;
  while (b < kBucketBounds.size() && value > kBucketBounds[b]) ++b;
  ++buckets[b];
}

std::uint64_t CompileStats::counter(const std::string& name) const {
  for (const CounterStats& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

const StageStats* CompileStats::span(const std::string& name) const {
  for (const StageStats& s : spans)
    if (s.depth == 0 && s.name == name) return &s;
  return nullptr;
}

Trace::Trace() : epoch_(std::chrono::steady_clock::now()) {}

Trace::~Trace() = default;

std::size_t Trace::track_id_locked() {
  const auto tid = std::this_thread::get_id();
  const auto it = tracks_.find(tid);
  if (it != tracks_.end()) return it->second;
  const std::size_t id = tracks_.size();
  tracks_.emplace(tid, id);
  return id;
}

void Trace::add_count(const char* name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void Trace::observe_ms(const char* name, double millis) {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramStats& h = histograms_[name];
  if (h.name.empty()) h.name = name;
  h.observe(millis);
}

void Trace::record_span(const char* name, double start_ms, double millis,
                        std::size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(StageStats{name, start_ms, millis, track_id_locked(), depth});
}

CompileStats Trace::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  CompileStats out;
  out.enabled = true;
  out.spans = spans_;
  out.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_)
    out.counters.push_back(CounterStats{name, value});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) out.histograms.push_back(hist);
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

// --- exporters -------------------------------------------------------------

namespace TraceExport {

namespace {

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

/// JSON string escaping for the few metacharacters stage names could carry.
std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
  out += '"';
  return out;
}

/// Shortest-round-trip double formatting (%.17g always re-reads exactly).
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string table(const CompileStats& stats) {
  std::string out;
  if (!stats.enabled) return "trace disabled\n";

  out += "stage                                   start ms      dur ms  track\n";
  for (const StageStats& s : stats.spans) {
    std::string name(2 * s.depth, ' ');
    name += s.name;
    if (name.size() < 38) name.resize(38, ' ');
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s  %10s  %10s  t%zu\n", name.c_str(),
                  fmt_ms(s.start_ms).c_str(), fmt_ms(s.millis).c_str(),
                  s.thread);
    out += buf;
  }
  if (!stats.counters.empty()) {
    out += "\ncounter                                      value\n";
    for (const CounterStats& c : stats.counters) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%-38s  %10llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      out += buf;
    }
  }
  if (!stats.histograms.empty()) {
    out += "\nhistogram                      count     sum ms    mean ms     max ms\n";
    for (const HistogramStats& h : stats.histograms) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%-26s  %8llu  %9s  %9s  %9s\n",
                    h.name.c_str(), static_cast<unsigned long long>(h.count),
                    fmt_ms(h.sum).c_str(),
                    fmt_ms(h.count ? h.sum / static_cast<double>(h.count) : 0.0)
                        .c_str(),
                    fmt_ms(h.max).c_str());
      out += buf;
    }
  }
  return out;
}

std::string chrome_json(const CompileStats& stats) {
  // Complete ("X") events use microsecond timestamps per the trace-event
  // spec; span depth rides along in args so parse_chrome_json can restore it.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&]() {
    if (!first) out += ',';
    first = false;
    out += "\n";
  };
  for (const StageStats& s : stats.spans) {
    sep();
    out += "{\"name\":" + json_quote(s.name) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.thread) +
           ",\"ts\":" + json_number(s.start_ms * 1000.0) +
           ",\"dur\":" + json_number(s.millis * 1000.0) +
           ",\"args\":{\"depth\":" + std::to_string(s.depth) + "}}";
  }
  for (const CounterStats& c : stats.counters) {
    sep();
    out += "{\"name\":" + json_quote(c.name) +
           ",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"value\":" +
           std::to_string(c.value) + "}}";
  }
  out += "\n]}\n";
  return out;
}

namespace {

/// Minimal JSON reader covering the documents chrome_json emits (objects,
/// arrays, strings, numbers, booleans, null). Not a general-purpose parser —
/// just enough for a faithful exporter round-trip and for reading profiles
/// back in tests/tools.
struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      v = nullptr;

  const JsonValue* find(const std::string& key) const {
    const auto* obj = std::get_if<JsonObject>(&v);
    if (obj == nullptr) return nullptr;
    const auto it = obj->find(key);
    return it == obj->end() ? nullptr : &it->second;
  }
  double number(double fallback = 0.0) const {
    const auto* d = std::get_if<double>(&v);
    return d != nullptr ? *d : fallback;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(Stage::Parse,
                "chrome-trace json: " + msg + " at offset " +
                    std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': return literal("true", JsonValue{true});
      case 'f': return literal("false", JsonValue{false});
      case 'n': return literal("null", JsonValue{nullptr});
      default: return JsonValue{number()};
    }
  }

  JsonValue literal(const char* word, JsonValue v) {
    if (s_.compare(pos_, std::string::traits_type::length(word), word) != 0)
      fail("bad literal");
    pos_ += std::string::traits_type::length(word);
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char ch = s_[pos_++];
      if (ch == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        switch (s_[pos_++]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: fail("unsupported escape");
        }
      } else {
        out += ch;
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr("+-.eE", s_[pos_]) != nullptr))
      ++pos_;
    if (pos_ == start) fail("bad value");
    try {
      return std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  JsonValue array() {
    expect('[');
    JsonArray out;
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(out)};
    }
    while (true) {
      out.push_back(value());
      const char ch = peek();
      ++pos_;
      if (ch == ']') return JsonValue{std::move(out)};
      if (ch != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject out;
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(out)};
    }
    while (true) {
      std::string key = string();
      expect(':');
      out.emplace(std::move(key), value());
      const char ch = peek();
      ++pos_;
      if (ch == '}') return JsonValue{std::move(out)};
      if (ch != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

CompileStats parse_chrome_json(const std::string& json) {
  const JsonValue doc = JsonReader(json).parse();
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !std::holds_alternative<JsonArray>(events->v))
    throw Error(Stage::Parse, "chrome-trace json: missing traceEvents array");

  CompileStats out;
  out.enabled = true;
  for (const JsonValue& ev : std::get<JsonArray>(events->v)) {
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    if (name == nullptr || ph == nullptr ||
        !std::holds_alternative<std::string>(name->v) ||
        !std::holds_alternative<std::string>(ph->v))
      throw Error(Stage::Parse, "chrome-trace json: event without name/ph");
    const std::string& phase = std::get<std::string>(ph->v);
    const JsonValue* args = ev.find("args");
    if (phase == "X") {
      StageStats s;
      s.name = std::get<std::string>(name->v);
      const JsonValue* ts = ev.find("ts");
      const JsonValue* dur = ev.find("dur");
      const JsonValue* tid = ev.find("tid");
      s.start_ms = (ts != nullptr ? ts->number() : 0.0) / 1000.0;
      s.millis = (dur != nullptr ? dur->number() : 0.0) / 1000.0;
      s.thread =
          static_cast<std::size_t>(tid != nullptr ? tid->number() : 0.0);
      if (args != nullptr)
        if (const JsonValue* depth = args->find("depth"))
          s.depth = static_cast<std::size_t>(depth->number());
      out.spans.push_back(std::move(s));
    } else if (phase == "C") {
      const JsonValue* value = args != nullptr ? args->find("value") : nullptr;
      if (value == nullptr)
        throw Error(Stage::Parse, "chrome-trace json: counter without value");
      out.counters.push_back(
          CounterStats{std::get<std::string>(name->v),
                       static_cast<std::uint64_t>(value->number())});
    }
    // Other phases (metadata etc.) are ignored.
  }
  return out;
}

}  // namespace TraceExport

}  // namespace phoenix
