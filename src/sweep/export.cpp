#include "sweep/export.hpp"

#include <charconv>
#include <cinttypes>
#include <clocale>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "core/treatment.hpp"
#include "sweep/generators.hpp"

namespace rtft::sweep {

namespace detail {

void appendf(std::string& out, const char* fmt, ...) {
  // Large enough for the widest verdict row; wider rows grow below.
  char buf[1024];
  std::va_list args;
  va_start(args, fmt);
  std::va_list retry;
  va_copy(retry, args);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  RTFT_ASSERT(n >= 0, "invalid export format string");
  if (n >= 0) {
    if (static_cast<std::size_t>(n) < sizeof(buf)) {
      out.append(buf, static_cast<std::size_t>(n));
    } else {
      // Truncated: format again straight into the grown destination
      // (vsnprintf needs room for its terminating NUL, trimmed after).
      const std::size_t old = out.size();
      out.resize(old + static_cast<std::size_t>(n) + 1);
      std::vsnprintf(&out[old], static_cast<std::size_t>(n) + 1, fmt, retry);
      out.resize(old + static_cast<std::size_t>(n));
    }
  }
  va_end(retry);
}

std::string normalize_decimal_point(std::string_view formatted,
                                    std::string_view decimal_point) {
  const std::size_t pos = decimal_point.empty() || decimal_point == "."
                              ? std::string_view::npos
                              : formatted.find(decimal_point);
  if (pos == std::string_view::npos) return std::string(formatted);
  std::string out;
  out.reserve(formatted.size());
  out.append(formatted.substr(0, pos));
  out += '.';
  out.append(formatted.substr(pos + decimal_point.size()));
  return out;
}

void append_double(std::string& out, double value) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  RTFT_ASSERT(n > 0 && static_cast<std::size_t>(n) < sizeof(buf),
              "%.17g exceeds the number buffer");
  const char* dp = std::localeconv()->decimal_point;
  if (dp == nullptr || (dp[0] == '.' && dp[1] == '\0')) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  out += normalize_decimal_point(std::string_view(buf,
                                                  static_cast<std::size_t>(n)),
                                 dp);
}

}  // namespace detail

namespace {

using detail::append_double;
using detail::appendf;

void append_hex(std::string& out, std::uint64_t v) {
  appendf(out, "%016" PRIx64, v);
}

const char* b(bool v) { return v ? "1" : "0"; }

void append_aggregate_json(std::string& out, const SweepAggregate& a) {
  appendf(out,
          "{\"total\":%" PRIu64 ",\"rta_schedulable\":%" PRIu64
          ",\"engine_clean\":%" PRIu64 ",\"agreement_violations\":%" PRIu64
          ",\"allowance_feasible\":%" PRIu64 ",\"allowance_honored\":%" PRIu64
          ",\"detector_clean\":%" PRIu64 ",\"allowance_sum_ns\":%" PRId64
          ",\"multicore\":%" PRIu64 ",\"ff_placed\":%" PRIu64
          ",\"fa_placed\":%" PRIu64 ",\"ff_failover_clean\":%" PRIu64
          ",\"fa_failover_clean\":%" PRIu64 ",\"mean_allowance_ms\":",
          a.total, a.rta_schedulable, a.engine_clean, a.agreement_violations,
          a.allowance_feasible, a.allowance_honored, a.detector_clean,
          a.allowance_sum.count(), a.multicore, a.ff_placed, a.fa_placed,
          a.ff_failover_clean, a.fa_failover_clean);
  append_double(out, a.mean_allowance_ms());
  out += '}';
}

/// The one verdict-object serialization, shared by report_json and the
/// shard writer: two hand-maintained copies of a 27-field format string
/// would drift apart silently.
void append_verdict_json(std::string& out, const ScenarioVerdict& v) {
  appendf(out, "{\"index\":%" PRIu64 ",\"seed\":\"", v.index);
  append_hex(out, v.seed);
  appendf(out, "\",\"cell\":%zu,\"tasks\":%zu,\"target_utilization\":",
          v.cell, v.task_count);
  append_double(out, v.target_utilization);
  out += ",\"actual_utilization\":";
  append_double(out, v.actual_utilization);
  appendf(out,
          ",\"detector_cost_ns\":%" PRId64 ",\"stop_poll_latency_ns\":%" PRId64
          ",\"rta_schedulable\":%s,\"engine_clean\":%s,\"nominal_misses\":%"
          PRId64 ",\"agreement\":%s,\"allowance_feasible\":%s,\"allowance_ns\""
          ":%" PRId64 ",\"allowance_honored\":%s,\"detector_clean\":%s,"
          "\"detector_faults\":%" PRId64,
          v.detector_cost.count(), v.stop_poll_latency.count(),
          v.rta_schedulable ? "true" : "false",
          v.engine_clean ? "true" : "false", v.nominal_misses,
          v.agreement ? "true" : "false",
          v.allowance_feasible ? "true" : "false", v.allowance.count(),
          v.allowance_honored ? "true" : "false",
          v.detector_clean ? "true" : "false", v.detector_faults);
  appendf(out,
          ",\"cores\":%zu,\"quantum_ns\":%" PRId64
          ",\"ff_placement_feasible\":%s,\"fa_placement_feasible\":%s"
          ",\"ff_failover_clean\":%s,\"fa_failover_clean\":%s"
          ",\"ff_missed_tasks\":%" PRId64 ",\"fa_missed_tasks\":%" PRId64
          ",\"ff_lost_jobs\":%" PRId64 ",\"fa_lost_jobs\":%" PRId64 "}",
          v.cores, v.quantum.count(),
          v.ff_placement_feasible ? "true" : "false",
          v.fa_placement_feasible ? "true" : "false",
          v.ff_failover_clean ? "true" : "false",
          v.fa_failover_clean ? "true" : "false", v.ff_missed_tasks,
          v.fa_missed_tasks, v.ff_lost_jobs, v.fa_lost_jobs);
}

}  // namespace

std::string verdicts_csv(const SweepReport& report) {
  std::string out =
      "index,seed,cell,tasks,target_utilization,actual_utilization,"
      "detector_cost_ns,stop_poll_latency_ns,rta_schedulable,engine_clean,"
      "nominal_misses,"
      "agreement,allowance_feasible,allowance_ns,allowance_honored,"
      "detector_clean,detector_faults,cores,quantum_ns,"
      "ff_placement_feasible,fa_placement_feasible,ff_failover_clean,"
      "fa_failover_clean,ff_missed_tasks,fa_missed_tasks,ff_lost_jobs,"
      "fa_lost_jobs\n";
  for (const ScenarioVerdict& v : report.verdicts) {
    appendf(out, "%" PRIu64 ",", v.index);
    append_hex(out, v.seed);
    appendf(out, ",%zu,%zu,", v.cell, v.task_count);
    append_double(out, v.target_utilization);
    out += ',';
    append_double(out, v.actual_utilization);
    appendf(out,
            ",%" PRId64 ",%" PRId64 ",%s,%s,%" PRId64 ",%s,%s,%" PRId64
            ",%s,%s,%" PRId64,
            v.detector_cost.count(), v.stop_poll_latency.count(),
            b(v.rta_schedulable), b(v.engine_clean),
            v.nominal_misses, b(v.agreement), b(v.allowance_feasible),
            v.allowance.count(), b(v.allowance_honored), b(v.detector_clean),
            v.detector_faults);
    appendf(out,
            ",%zu,%" PRId64 ",%s,%s,%s,%s,%" PRId64 ",%" PRId64 ",%" PRId64
            ",%" PRId64 "\n",
            v.cores, v.quantum.count(), b(v.ff_placement_feasible),
            b(v.fa_placement_feasible), b(v.ff_failover_clean),
            b(v.fa_failover_clean), v.ff_missed_tasks, v.fa_missed_tasks,
            v.ff_lost_jobs, v.fa_lost_jobs);
  }
  return out;
}

std::string cells_csv(const SweepReport& report) {
  std::string out =
      "cell,tasks,utilization,detector_cost_ns,stop_poll_latency_ns,cores,"
      "quantum_ns,total,"
      "rta_schedulable,"
      "engine_clean,agreement_violations,allowance_feasible,"
      "allowance_honored,detector_clean,multicore,ff_placed,fa_placed,"
      "ff_failover_clean,fa_failover_clean,mean_allowance_ms\n";
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const CellSummary& cell = report.cells[c];
    const SweepAggregate& a = cell.agg;
    appendf(out, "%zu,%zu,", c, cell.task_count);
    append_double(out, cell.utilization);
    appendf(out,
            ",%" PRId64 ",%" PRId64 ",%zu,%" PRId64 ",%" PRIu64 ",%" PRIu64
            ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
            ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",",
            cell.detector_cost.count(), cell.stop_poll_latency.count(),
            cell.cores, cell.quantum.count(), a.total, a.rta_schedulable,
            a.engine_clean, a.agreement_violations, a.allowance_feasible,
            a.allowance_honored, a.detector_clean, a.multicore, a.ff_placed,
            a.fa_placed, a.ff_failover_clean, a.fa_failover_clean);
    append_double(out, a.mean_allowance_ms());
    out += '\n';
  }
  return out;
}

std::string report_json(const SweepReport& report) {
  const SweepOptions& o = report.options;
  std::string out = "{\n  \"options\": ";
  appendf(out,
          "{\"scenario_count\":%" PRIu64 ",\"workers\":%zu,\"base_seed\":\"",
          o.scenario_count, o.workers);
  append_hex(out, o.base_seed);
  appendf(out,
          "\",\"horizon_periods\":%" PRId64
          ",\"allowance_granularity_ns\":%" PRId64
          ",\"keep_verdicts\":%s,\"partitioner\":\"%.*s\""
          ",\"core_fault_fraction\":",
          o.horizon_periods, o.allowance_granularity.count(),
          o.keep_verdicts ? "true" : "false",
          static_cast<int>(to_string(o.partitioner).size()),
          to_string(o.partitioner).data());
  append_double(out, o.core_fault_fraction);
  out += "},\n";
  out += "  \"totals\": ";
  append_aggregate_json(out, report.totals);
  out += ",\n  \"cells\": [";
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const CellSummary& cell = report.cells[c];
    if (c > 0) out += ',';
    appendf(out, "\n    {\"cell\":%zu,\"tasks\":%zu,\"utilization\":", c,
            cell.task_count);
    append_double(out, cell.utilization);
    appendf(out,
            ",\"detector_cost_ns\":%" PRId64
            ",\"stop_poll_latency_ns\":%" PRId64 ",\"cores\":%zu"
            ",\"quantum_ns\":%" PRId64 ",\"aggregate\":",
            cell.detector_cost.count(), cell.stop_poll_latency.count(),
            cell.cores, cell.quantum.count());
    append_aggregate_json(out, cell.agg);
    out += '}';
  }
  out += "\n  ],\n  \"verdicts\": [";
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    ";
    append_verdict_json(out, report.verdicts[i]);
  }
  out += "\n  ],\n  \"elapsed_seconds\": ";
  append_double(out, report.elapsed_seconds);
  out += ",\n  \"fingerprint\": \"";
  append_hex(out, report.fingerprint);
  out += "\"\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Shard interchange: writer.
// ---------------------------------------------------------------------------

namespace {

void append_grid_json(std::string& out, const SweepGrid& g) {
  out += "{\"task_counts\":[";
  for (std::size_t i = 0; i < g.task_counts.size(); ++i) {
    appendf(out, "%s%zu", i > 0 ? "," : "", g.task_counts[i]);
  }
  out += "],\"utilizations\":[";
  for (std::size_t i = 0; i < g.utilizations.size(); ++i) {
    if (i > 0) out += ',';
    append_double(out, g.utilizations[i]);
  }
  out += "],\"detector_cost_ns\":[";
  for (std::size_t i = 0; i < g.detector_costs.size(); ++i) {
    appendf(out, "%s%" PRId64, i > 0 ? "," : "",
            g.detector_costs[i].count());
  }
  out += "],\"stop_poll_latency_ns\":[";
  for (std::size_t i = 0; i < g.stop_poll_latencies.size(); ++i) {
    appendf(out, "%s%" PRId64, i > 0 ? "," : "",
            g.stop_poll_latencies[i].count());
  }
  out += "],\"core_counts\":[";
  for (std::size_t i = 0; i < g.core_counts.size(); ++i) {
    appendf(out, "%s%zu", i > 0 ? "," : "", g.core_counts[i]);
  }
  out += "],\"quantizer_resolution_ns\":[";
  for (std::size_t i = 0; i < g.quantizer_resolutions.size(); ++i) {
    appendf(out, "%s%" PRId64, i > 0 ? "," : "",
            g.quantizer_resolutions[i].count());
  }
  out += "],\"deadline_min_factor\":";
  append_double(out, g.deadline_min_factor);
  out += ",\"deadline_max_factor\":";
  append_double(out, g.deadline_max_factor);
  appendf(out, ",\"min_period_ns\":%" PRId64 ",\"max_period_ns\":%" PRId64 "}",
          g.min_period.count(), g.max_period.count());
}

}  // namespace

std::string shard_json(const ShardResult& shard) {
  const SweepOptions& o = shard.options;
  std::string out;
  appendf(out, "{\n  \"format\": \"%.*s\",\n  \"version\": %" PRId64 ",\n",
          static_cast<int>(kShardFormatName.size()), kShardFormatName.data(),
          kShardFormatVersion);
  out += "  \"options\": {";
  appendf(out, "\"scenario_count\":%" PRIu64 ",\"base_seed\":\"",
          o.scenario_count);
  append_hex(out, o.base_seed);
  appendf(out,
          "\",\"workers\":%zu,\"horizon_periods\":%" PRId64
          ",\"allowance_granularity_ns\":%" PRId64 ",\"detector_policy\":"
          "\"%.*s\",\"partitioner\":\"%.*s\",\"core_fault_fraction\":",
          o.workers, o.horizon_periods, o.allowance_granularity.count(),
          static_cast<int>(to_string(o.detector_policy).size()),
          to_string(o.detector_policy).data(),
          static_cast<int>(to_string(o.partitioner).size()),
          to_string(o.partitioner).data());
  append_double(out, o.core_fault_fraction);
  out += ",\"grid\":";
  append_grid_json(out, o.grid);
  out += "},\n  \"shard\": ";
  appendf(out,
          "{\"index\":%" PRIu64 ",\"shards\":%" PRIu64 ",\"begin\":%" PRIu64
          ",\"end\":%" PRIu64 "},\n",
          shard.shard.index, shard.shard.shards, shard.shard.begin,
          shard.shard.end);
  out += "  \"totals\": ";
  append_aggregate_json(out, shard.totals);
  out += ",\n  \"cells\": [";
  for (std::size_t c = 0; c < shard.cells.size(); ++c) {
    const CellSummary& cell = shard.cells[c];
    if (c > 0) out += ',';
    appendf(out, "\n    {\"cell\":%zu,\"tasks\":%zu,\"utilization\":", c,
            cell.task_count);
    append_double(out, cell.utilization);
    appendf(out,
            ",\"detector_cost_ns\":%" PRId64
            ",\"stop_poll_latency_ns\":%" PRId64 ",\"cores\":%zu"
            ",\"quantum_ns\":%" PRId64 ",\"aggregate\":",
            cell.detector_cost.count(), cell.stop_poll_latency.count(),
            cell.cores, cell.quantum.count());
    append_aggregate_json(out, cell.agg);
    out += '}';
  }
  out += "\n  ],\n  \"verdicts\": [";
  for (std::size_t i = 0; i < shard.verdicts.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    ";
    append_verdict_json(out, shard.verdicts[i]);
  }
  out += "\n  ],\n  \"fingerprint\": \"";
  append_hex(out, shard.fingerprint);
  out += "\",\n  \"elapsed_seconds\": ";
  append_double(out, shard.elapsed_seconds);
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Shard interchange: reader. A minimal recursive-descent JSON parser —
// just what the versioned shard format needs, with every failure mapped
// to a ShardError naming the defect (the repo deliberately has no JSON
// dependency).
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Decoded characters for kString; the raw token for kNumber (kept
  /// textual so 64-bit integers and %.17g doubles convert losslessly
  /// via from_chars instead of detouring through double).
  std::string text;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject.
  std::vector<JsonValue> items;                            ///< kArray.

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  /// The shard format nests four levels deep; anything past this bound
  /// is not one of our documents (and must not overflow the C++ stack).
  static constexpr int kMaxDepth = 16;

  [[noreturn]] void fail(const std::string& why) const {
    throw ShardError("shard JSON parse error at offset " +
                     std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw ShardError("shard JSON parse error at offset " +
                       std::to_string(pos_) + ": unexpected end of document");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + '\'');
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        switch (text_[pos_++]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default:
            // \uXXXX is valid JSON but the format never emits it.
            fail("unsupported string escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      out += c;
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("document nests too deeply");
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (consume('}')) return v;
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (consume(']')) return v;
      for (;;) {
        v.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (consume_word("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_word("null")) return v;
    // Number token: validated on conversion, so the scan just collects.
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      const bool number_char = (d >= '0' && d <= '9') || d == '-' ||
                               d == '+' || d == '.' || d == 'e' || d == 'E';
      if (!number_char) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    v.kind = JsonValue::Kind::kNumber;
    v.text.assign(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void field_error(const char* what, const std::string& why) {
  throw ShardError(std::string("shard JSON field '") + what + "': " + why);
}

const JsonValue& member(const JsonValue& obj, const char* key) {
  if (obj.kind != JsonValue::Kind::kObject) {
    field_error(key, "enclosing value is not an object");
  }
  const JsonValue* v = obj.find(key);
  if (v == nullptr) field_error(key, "missing");
  return *v;
}

std::uint64_t as_u64(const JsonValue& v, const char* what) {
  std::uint64_t out = 0;
  const char* b = v.text.data();
  const char* e = b + v.text.size();
  if (v.kind != JsonValue::Kind::kNumber) {
    field_error(what, "expected a number");
  }
  const auto [p, ec] = std::from_chars(b, e, out);
  if (ec != std::errc{} || p != e) {
    field_error(what, "expected an unsigned integer");
  }
  return out;
}

std::int64_t as_i64(const JsonValue& v, const char* what) {
  std::int64_t out = 0;
  const char* b = v.text.data();
  const char* e = b + v.text.size();
  if (v.kind != JsonValue::Kind::kNumber) {
    field_error(what, "expected a number");
  }
  const auto [p, ec] = std::from_chars(b, e, out);
  if (ec != std::errc{} || p != e) field_error(what, "expected an integer");
  return out;
}

double as_double(const JsonValue& v, const char* what) {
  double out = 0.0;
  const char* b = v.text.data();
  const char* e = b + v.text.size();
  if (v.kind != JsonValue::Kind::kNumber) {
    field_error(what, "expected a number");
  }
  const auto [p, ec] = std::from_chars(b, e, out);
  if (ec != std::errc{} || p != e) field_error(what, "expected a number");
  return out;
}

bool as_bool(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kBool) field_error(what, "expected a bool");
  return v.boolean;
}

const std::string& as_string(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kString) {
    field_error(what, "expected a string");
  }
  return v.text;
}

/// 64-bit values ride as hex strings (JSON numbers stop being exact at
/// 2^53); accepts what append_hex writes.
std::uint64_t as_hex_u64(const JsonValue& v, const char* what) {
  const std::string& s = as_string(v, what);
  std::uint64_t out = 0;
  const char* b = s.data();
  const char* e = b + s.size();
  const auto [p, ec] = std::from_chars(b, e, out, 16);
  if (ec != std::errc{} || p != e || s.empty() || s.size() > 16) {
    field_error(what, "expected a 64-bit hex string");
  }
  return out;
}

const std::vector<JsonValue>& as_array(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kArray) field_error(what, "expected an array");
  return v.items;
}

SweepAggregate read_aggregate(const JsonValue& v) {
  SweepAggregate a;
  a.total = as_u64(member(v, "total"), "total");
  a.rta_schedulable = as_u64(member(v, "rta_schedulable"), "rta_schedulable");
  a.engine_clean = as_u64(member(v, "engine_clean"), "engine_clean");
  a.agreement_violations =
      as_u64(member(v, "agreement_violations"), "agreement_violations");
  a.allowance_feasible =
      as_u64(member(v, "allowance_feasible"), "allowance_feasible");
  a.allowance_honored =
      as_u64(member(v, "allowance_honored"), "allowance_honored");
  a.detector_clean = as_u64(member(v, "detector_clean"), "detector_clean");
  a.multicore = as_u64(member(v, "multicore"), "multicore");
  a.ff_placed = as_u64(member(v, "ff_placed"), "ff_placed");
  a.fa_placed = as_u64(member(v, "fa_placed"), "fa_placed");
  a.ff_failover_clean =
      as_u64(member(v, "ff_failover_clean"), "ff_failover_clean");
  a.fa_failover_clean =
      as_u64(member(v, "fa_failover_clean"), "fa_failover_clean");
  a.allowance_sum =
      Duration::ns(as_i64(member(v, "allowance_sum_ns"), "allowance_sum_ns"));
  return a;
}

bool aggregates_equal(const SweepAggregate& a, const SweepAggregate& b) {
  return a.total == b.total && a.rta_schedulable == b.rta_schedulable &&
         a.engine_clean == b.engine_clean &&
         a.agreement_violations == b.agreement_violations &&
         a.allowance_feasible == b.allowance_feasible &&
         a.allowance_honored == b.allowance_honored &&
         a.detector_clean == b.detector_clean &&
         a.multicore == b.multicore && a.ff_placed == b.ff_placed &&
         a.fa_placed == b.fa_placed &&
         a.ff_failover_clean == b.ff_failover_clean &&
         a.fa_failover_clean == b.fa_failover_clean &&
         a.allowance_sum == b.allowance_sum;
}

ScenarioVerdict read_verdict(const JsonValue& jv) {
  ScenarioVerdict v;
  v.index = as_u64(member(jv, "index"), "index");
  v.seed = as_hex_u64(member(jv, "seed"), "seed");
  v.cell = static_cast<std::size_t>(as_u64(member(jv, "cell"), "cell"));
  v.task_count =
      static_cast<std::size_t>(as_u64(member(jv, "tasks"), "tasks"));
  v.target_utilization =
      as_double(member(jv, "target_utilization"), "target_utilization");
  v.actual_utilization =
      as_double(member(jv, "actual_utilization"), "actual_utilization");
  v.detector_cost =
      Duration::ns(as_i64(member(jv, "detector_cost_ns"), "detector_cost_ns"));
  v.stop_poll_latency = Duration::ns(
      as_i64(member(jv, "stop_poll_latency_ns"), "stop_poll_latency_ns"));
  v.rta_schedulable = as_bool(member(jv, "rta_schedulable"), "rta_schedulable");
  v.engine_clean = as_bool(member(jv, "engine_clean"), "engine_clean");
  v.nominal_misses = as_i64(member(jv, "nominal_misses"), "nominal_misses");
  v.agreement = as_bool(member(jv, "agreement"), "agreement");
  v.allowance_feasible =
      as_bool(member(jv, "allowance_feasible"), "allowance_feasible");
  v.allowance =
      Duration::ns(as_i64(member(jv, "allowance_ns"), "allowance_ns"));
  v.allowance_honored =
      as_bool(member(jv, "allowance_honored"), "allowance_honored");
  v.detector_clean = as_bool(member(jv, "detector_clean"), "detector_clean");
  v.detector_faults = as_i64(member(jv, "detector_faults"), "detector_faults");
  v.cores = static_cast<std::size_t>(as_u64(member(jv, "cores"), "cores"));
  v.quantum = Duration::ns(as_i64(member(jv, "quantum_ns"), "quantum_ns"));
  v.ff_placement_feasible =
      as_bool(member(jv, "ff_placement_feasible"), "ff_placement_feasible");
  v.fa_placement_feasible =
      as_bool(member(jv, "fa_placement_feasible"), "fa_placement_feasible");
  v.ff_failover_clean =
      as_bool(member(jv, "ff_failover_clean"), "ff_failover_clean");
  v.fa_failover_clean =
      as_bool(member(jv, "fa_failover_clean"), "fa_failover_clean");
  v.ff_missed_tasks = as_i64(member(jv, "ff_missed_tasks"), "ff_missed_tasks");
  v.fa_missed_tasks = as_i64(member(jv, "fa_missed_tasks"), "fa_missed_tasks");
  v.ff_lost_jobs = as_i64(member(jv, "ff_lost_jobs"), "ff_lost_jobs");
  v.fa_lost_jobs = as_i64(member(jv, "fa_lost_jobs"), "fa_lost_jobs");
  return v;
}

}  // namespace

ShardResult load_shard_json(std::string_view json) {
  JsonParser parser(json);
  const JsonValue root = parser.parse_document();
  if (root.kind != JsonValue::Kind::kObject) {
    throw ShardError("shard document must be a JSON object");
  }
  if (as_string(member(root, "format"), "format") != kShardFormatName) {
    throw ShardError("not an rtft-shard document (format field differs)");
  }
  const std::int64_t version = as_i64(member(root, "version"), "version");
  if (version != kShardFormatVersion) {
    throw ShardError("unsupported rtft-shard version " +
                     std::to_string(version) + " (this build reads version " +
                     std::to_string(kShardFormatVersion) + ")");
  }

  ShardResult result;
  SweepOptions& o = result.options;
  const JsonValue& jo = member(root, "options");
  o.scenario_count = as_u64(member(jo, "scenario_count"), "scenario_count");
  o.base_seed = as_hex_u64(member(jo, "base_seed"), "base_seed");
  o.workers = static_cast<std::size_t>(as_u64(member(jo, "workers"),
                                              "workers"));
  o.horizon_periods = as_i64(member(jo, "horizon_periods"), "horizon_periods");
  o.allowance_granularity = Duration::ns(as_i64(
      member(jo, "allowance_granularity_ns"), "allowance_granularity_ns"));
  try {
    o.detector_policy = core::treatment_policy_from_string(
        as_string(member(jo, "detector_policy"), "detector_policy"));
  } catch (const ContractViolation&) {
    throw ShardError("unknown detector_policy name");
  }
  try {
    o.partitioner = partitioner_mode_from_string(
        as_string(member(jo, "partitioner"), "partitioner"));
  } catch (const ContractViolation&) {
    throw ShardError("unknown partitioner name");
  }
  o.core_fault_fraction =
      as_double(member(jo, "core_fault_fraction"), "core_fault_fraction");
  const JsonValue& jg = member(jo, "grid");
  SweepGrid& g = o.grid;
  g.task_counts.clear();
  for (const JsonValue& t : as_array(member(jg, "task_counts"),
                                     "task_counts")) {
    g.task_counts.push_back(static_cast<std::size_t>(as_u64(t,
                                                            "task_counts")));
  }
  g.utilizations.clear();
  for (const JsonValue& u : as_array(member(jg, "utilizations"),
                                     "utilizations")) {
    g.utilizations.push_back(as_double(u, "utilizations"));
  }
  g.detector_costs.clear();
  for (const JsonValue& c : as_array(member(jg, "detector_cost_ns"),
                                     "detector_cost_ns")) {
    g.detector_costs.push_back(Duration::ns(as_i64(c, "detector_cost_ns")));
  }
  g.stop_poll_latencies.clear();
  for (const JsonValue& l : as_array(member(jg, "stop_poll_latency_ns"),
                                     "stop_poll_latency_ns")) {
    g.stop_poll_latencies.push_back(
        Duration::ns(as_i64(l, "stop_poll_latency_ns")));
  }
  g.core_counts.clear();
  for (const JsonValue& m : as_array(member(jg, "core_counts"),
                                     "core_counts")) {
    g.core_counts.push_back(static_cast<std::size_t>(as_u64(m,
                                                            "core_counts")));
  }
  g.quantizer_resolutions.clear();
  for (const JsonValue& q : as_array(member(jg, "quantizer_resolution_ns"),
                                     "quantizer_resolution_ns")) {
    g.quantizer_resolutions.push_back(
        Duration::ns(as_i64(q, "quantizer_resolution_ns")));
  }
  g.deadline_min_factor =
      as_double(member(jg, "deadline_min_factor"), "deadline_min_factor");
  g.deadline_max_factor =
      as_double(member(jg, "deadline_max_factor"), "deadline_max_factor");
  g.min_period = Duration::ns(as_i64(member(jg, "min_period_ns"),
                                     "min_period_ns"));
  g.max_period = Duration::ns(as_i64(member(jg, "max_period_ns"),
                                     "max_period_ns"));
  // A merged report of loaded shards always carries its verdicts: they
  // are what the file transported.
  o.keep_verdicts = true;

  // The plan constructor is the one source of truth for option
  // validity; a file that fails it is not a usable shard.
  try {
    const SweepPlan plan(o);
    o = plan.options();
  } catch (const ContractViolation& e) {
    throw ShardError(std::string("invalid sweep options in shard file: ") +
                     e.what());
  }

  const JsonValue& js = member(root, "shard");
  result.shard.index = as_u64(member(js, "index"), "shard.index");
  result.shard.shards = as_u64(member(js, "shards"), "shard.shards");
  result.shard.begin = as_u64(member(js, "begin"), "shard.begin");
  result.shard.end = as_u64(member(js, "end"), "shard.end");
  if (result.shard.shards == 0 ||
      result.shard.index >= result.shard.shards) {
    throw ShardError("shard index/count are inconsistent");
  }
  if (result.shard.begin > result.shard.end ||
      result.shard.end > o.scenario_count) {
    throw ShardError("shard range does not lie within the sweep");
  }

  // Verdicts: the payload. Everything derivable is re-derived and
  // compared, so a shard that loads is internally consistent.
  const std::size_t cells = o.grid.cell_count();
  const auto& jverdicts = as_array(member(root, "verdicts"), "verdicts");
  if (jverdicts.size() != result.shard.count()) {
    throw ShardError("verdict count " + std::to_string(jverdicts.size()) +
                     " does not match the shard range [" +
                     std::to_string(result.shard.begin) + ", " +
                     std::to_string(result.shard.end) + ")");
  }
  result.verdicts.reserve(jverdicts.size());
  std::vector<SweepAggregate> cell_aggs(cells);
  Fingerprint fp;
  for (std::size_t i = 0; i < jverdicts.size(); ++i) {
    ScenarioVerdict v = read_verdict(jverdicts[i]);
    const std::uint64_t expect_index =
        result.shard.begin + static_cast<std::uint64_t>(i);
    if (v.index != expect_index) {
      throw ShardError("verdict " + std::to_string(i) +
                       " is out of index order");
    }
    if (v.seed != scenario_seed(o.base_seed, v.index)) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " carries a seed the sweep options do not derive");
    }
    if (v.cell != static_cast<std::size_t>(v.index % cells)) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " is assigned to the wrong grid cell");
    }
    // The one verdict field that is neither fingerprinted nor aggregate
    // -covered; re-derive it like seeds and cells or tampering would
    // slip into merged exports.
    if (v.target_utilization !=
        scenario_spec(o, v.index).tasks.total_utilization) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " carries a target utilization the grid does not "
                       "derive");
    }
    result.totals.add(v);
    cell_aggs[v.cell].add(v);
    fp.add(v);
    result.verdicts.push_back(std::move(v));
  }

  // Declared aggregates and fingerprint must equal the recomputation —
  // the tamper/bit-rot/version-skew check.
  if (!aggregates_equal(result.totals, read_aggregate(member(root,
                                                             "totals")))) {
    throw ShardError("totals do not match the verdicts (corrupt shard file)");
  }
  const auto& jcells = as_array(member(root, "cells"), "cells");
  if (jcells.size() != cells) {
    throw ShardError("cell count does not match the sweep grid");
  }
  result.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    if (!aggregates_equal(cell_aggs[c],
                          read_aggregate(member(jcells[c], "aggregate")))) {
      throw ShardError("cell " + std::to_string(c) +
                       " aggregate does not match the verdicts");
    }
    result.cells[c].agg = cell_aggs[c];
  }
  detail::fill_cell_metadata(o, result.cells);
  result.fingerprint = fp.value();
  if (result.fingerprint !=
      as_hex_u64(member(root, "fingerprint"), "fingerprint")) {
    throw ShardError(
        "fingerprint does not match the verdicts (corrupt or tampered "
        "shard file)");
  }
  result.elapsed_seconds =
      as_double(member(root, "elapsed_seconds"), "elapsed_seconds");
  return result;
}

}  // namespace rtft::sweep
