#include "sweep/export.hpp"

#include <charconv>
#include <cinttypes>
#include <clocale>
#include <cstdarg>
#include <cstdio>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sweep/fields.hpp"

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
namespace key = fields::key;

constexpr std::string_view kMeanAllowanceMs = "mean_allowance_ms";

void append_hex(std::string& out, std::uint64_t v) {
  appendf(out, "%016" PRIx64, v);
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

/// One value in its row's codec (fields.hpp). `json` writes bools as
/// true/false rather than 1/0 and quotes hex strings.
template <typename T>
void append_value(std::string& out, const T& v, bool hex, bool json) {
  if constexpr (std::is_same_v<T, bool>) {
    out += json ? (v ? "true" : "false") : (v ? "1" : "0");
  } else if constexpr (std::is_same_v<T, double>) {
    append_double(out, v);
  } else if constexpr (std::is_same_v<T, Duration>) {
    append_int(out, v.count());
  } else if constexpr (std::is_enum_v<T>) {
    out += '"';
    out += to_string(v);
    out += '"';
  } else if constexpr (fields::kIsVector<T>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      append_value(out, v[i], hex, json);
    }
    out += ']';
  } else if (hex) {
    if (json) out += '"';
    append_hex(out, v);
    if (json) out += '"';
  } else {
    append_int(out, v);
  }
}

/// Every row of `table`, comma-separated: `"key":value` in JSON, the
/// bare value in a CSV row.
template <typename Rec, typename Table>
void append_fields(std::string& out, const Rec& rec, const Table& table,
                   bool json) {
  bool first = true;
  fields::for_each(table, [&](const auto& f) {
    if (!first) out += ',';
    first = false;
    if (json) {
      out += '"';
      out += f.key;
      out += "\":";
    }
    append_value(out, rec.*f.member, f.hex, json);
  });
}

/// The CSV header of `table`: its keys, comma-separated.
template <typename Table>
void append_keys(std::string& out, const Table& table) {
  bool first = true;
  fields::for_each(table, [&](const auto& f) {
    if (!first) out += ',';
    first = false;
    out += f.key;
  });
}

void append_aggregate_json(std::string& out, const SweepAggregate& a) {
  out += '{';
  append_fields(out, a, fields::kAggregate, true);
  out += ",\"";
  out += kMeanAllowanceMs;
  out += "\":";
  append_double(out, a.mean_allowance_ms());
  out += '}';
}

/// The options object without its closing brace: report_json appends
/// keep_verdicts before closing it.
void append_options_json(std::string& out, const SweepOptions& o) {
  out += '{';
  append_fields(out, o, fields::kOptions, true);
  out += ",\"grid\":{";
  append_fields(out, o.grid, fields::kGrid, true);
  out += '}';
}

/// The totals, cells and verdicts members report_json and shard_json
/// share.
void append_results(std::string& out, const SweepAggregate& totals,
                    const std::vector<CellSummary>& cells,
                    const std::vector<ScenarioVerdict>& verdicts) {
  out += "  \"totals\": ";
  append_aggregate_json(out, totals);
  out += ",\n  \"cells\": [";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out += c > 0 ? ",\n    {\"" : "\n    {\"";
    out += key::cell;
    out += "\":";
    append_int(out, c);
    out += ',';
    append_fields(out, cells[c], fields::kCell, true);
    out += ",\"aggregate\":";
    append_aggregate_json(out, cells[c].agg);
    out += '}';
  }
  out += "\n  ],\n  \"verdicts\": [";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    out += i > 0 ? ",\n    {" : "\n    {";
    append_fields(out, verdicts[i], fields::kVerdict, true);
    out += '}';
  }
  out += "\n  ]";
}

}  // namespace

std::string verdicts_csv(const SweepReport& report) {
  std::string out;
  append_keys(out, fields::kVerdict);
  out += '\n';
  for (const ScenarioVerdict& v : report.verdicts) {
    append_fields(out, v, fields::kVerdict, false);
    out += '\n';
  }
  return out;
}

std::string cells_csv(const SweepReport& report) {
  std::string out(key::cell);
  out += ',';
  append_keys(out, fields::kCell);
  out += ',';
  append_keys(out, fields::kAggregate);
  out += ',';
  out += kMeanAllowanceMs;
  out += '\n';
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    append_int(out, c);
    out += ',';
    append_fields(out, report.cells[c], fields::kCell, false);
    out += ',';
    append_fields(out, report.cells[c].agg, fields::kAggregate, false);
    out += ',';
    append_double(out, report.cells[c].agg.mean_allowance_ms());
    out += '\n';
  }
  return out;
}

std::string report_json(const SweepReport& report) {
  std::string out = "{\n  \"options\": ";
  append_options_json(out, report.options);
  out += ",\"keep_verdicts\":";
  append_value(out, report.options.keep_verdicts, false, true);
  out += "},\n";
  append_results(out, report.totals, report.cells, report.verdicts);
  out += ",\n  \"elapsed_seconds\": ";
  append_double(out, report.elapsed_seconds);
  out += ",\n  \"fingerprint\": \"";
  append_hex(out, report.fingerprint);
  out += "\"\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Shard interchange: writer.
// ---------------------------------------------------------------------------

std::string shard_json(const ShardResult& shard) {
  std::string out;
  appendf(out, "{\n  \"format\": \"%.*s\",\n  \"version\": %" PRId64 ",\n",
          static_cast<int>(kShardFormatName.size()), kShardFormatName.data(),
          kShardFormatVersion);
  out += "  \"options\": ";
  append_options_json(out, shard.options);
  out += "},\n  \"shard\": {";
  append_fields(out, shard.shard, fields::kShard, true);
  out += "},\n";
  append_results(out, shard.totals, shard.cells, shard.verdicts);
  out += ",\n  \"fingerprint\": \"";
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

[[noreturn]] void field_error(std::string_view what, const std::string& why) {
  throw ShardError("shard JSON field '" + std::string(what) + "': " + why);
}

/// The member `key` of `obj`. Documents list members in table order, so
/// the one at position `hint` is checked before a search.
const JsonValue& member(const JsonValue& obj, std::string_view key,
                        std::size_t hint = 0) {
  if (obj.kind != JsonValue::Kind::kObject) {
    field_error(key, "enclosing value is not an object");
  }
  if (hint < obj.members.size() && obj.members[hint].first == key) {
    return obj.members[hint].second;
  }
  const JsonValue* v = obj.find(key);
  if (v == nullptr) field_error(key, "missing");
  return *v;
}

/// from_chars over a number token, into any arithmetic type.
template <typename T>
T as_number(const JsonValue& v, std::string_view what, const char* expected) {
  if (v.kind != JsonValue::Kind::kNumber) {
    field_error(what, "expected a number");
  }
  T out{};
  const char* e = v.text.data() + v.text.size();
  const auto [p, ec] = std::from_chars(v.text.data(), e, out);
  if (ec != std::errc{} || p != e) field_error(what, expected);
  return out;
}

const std::string& as_string(const JsonValue& v, std::string_view what) {
  if (v.kind != JsonValue::Kind::kString) {
    field_error(what, "expected a string");
  }
  return v.text;
}

/// 64-bit values ride as hex strings (JSON numbers stop being exact at
/// 2^53); accepts what append_hex writes.
std::uint64_t as_hex_u64(const JsonValue& v, std::string_view what) {
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

const std::vector<JsonValue>& as_array(const JsonValue& v,
                                       std::string_view what) {
  if (v.kind != JsonValue::Kind::kArray) field_error(what, "expected an array");
  return v.items;
}

/// The inverse of append_value.
template <typename T>
void read_value(const JsonValue& v, std::string_view what, bool hex, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v.kind != JsonValue::Kind::kBool) field_error(what, "expected a bool");
    out = v.boolean;
  } else if constexpr (std::is_same_v<T, double>) {
    out = as_number<double>(v, what, "expected a number");
  } else if constexpr (std::is_same_v<T, Duration>) {
    out = Duration::ns(as_number<std::int64_t>(v, what, "expected an integer"));
  } else if constexpr (std::is_enum_v<T>) {
    try {
      fields::from_string(as_string(v, what), out);
    } catch (const ContractViolation&) {
      field_error(what, "names no known value");
    }
  } else if constexpr (fields::kIsVector<T>) {
    out.clear();
    for (const JsonValue& item : as_array(v, what)) {
      read_value(item, what, hex, out.emplace_back());
    }
  } else if constexpr (std::is_signed_v<T>) {
    out = as_number<T>(v, what, "expected an integer");
  } else {
    out = hex ? as_hex_u64(v, what)
              : as_number<T>(v, what, "expected an unsigned integer");
  }
}

/// Reads every row of `table` from the object `obj` into `rec`.
template <typename Rec, typename Table>
void read_fields(const JsonValue& obj, const Table& table, Rec& rec) {
  std::size_t i = 0;
  fields::for_each(table, [&](const auto& f) {
    read_value(member(obj, f.key, i++), f.key, f.hex, rec.*f.member);
  });
}

SweepAggregate read_aggregate(const JsonValue& v) {
  SweepAggregate a;
  read_fields(v, fields::kAggregate, a);
  return a;
}

/// True when every ff_*/fa_* verdict field sits at its default — what a
/// single-core verdict carries, since only cores > 1 runs that stage.
bool multicore_fields_at_defaults(const ScenarioVerdict& v) {
  const ScenarioVerdict defaults;
  bool at_defaults = true;
  fields::for_each(fields::kVerdict, [&](const auto& f) {
    if (f.key.starts_with("ff_") || f.key.starts_with("fa_")) {
      at_defaults = at_defaults && v.*f.member == defaults.*f.member;
    }
  });
  return at_defaults;
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
  std::int64_t version = 0;
  read_value(member(root, "version"), "version", false, version);
  if (version != kShardFormatVersion) {
    throw ShardError("unsupported rtft-shard version " +
                     std::to_string(version) + " (this build reads version " +
                     std::to_string(kShardFormatVersion) + ")");
  }

  ShardResult result;
  SweepOptions& o = result.options;
  const JsonValue& jo = member(root, "options");
  read_fields(jo, fields::kOptions, o);
  read_fields(member(jo, "grid"), fields::kGrid, o.grid);
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

  read_fields(member(root, "shard"), fields::kShard, result.shard);
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
    ScenarioVerdict v;
    read_fields(jverdicts[i], fields::kVerdict, v);
    const std::uint64_t expect_index =
        result.shard.begin + static_cast<std::uint64_t>(i);
    if (v.index != expect_index) {
      throw ShardError("verdict " + std::to_string(i) +
                       " is out of index order");
    }
    // Seed, cell and grid coordinates are re-derived from the options:
    // the fingerprint skips coordinates at their defaults and the
    // aggregates skip them all, so tampering would otherwise slip into
    // merged exports.
    const ScenarioSpec spec = scenario_spec(o, v.index);
    if (v.seed != spec.seed || v.cell != spec.cell ||
        v.target_utilization != spec.tasks.total_utilization ||
        v.detector_cost != spec.detector_cost ||
        v.stop_poll_latency != spec.stop_poll_latency ||
        v.cores != spec.cores || v.quantum != spec.quantum) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " carries a seed, cell or grid coordinate the sweep "
                       "options do not derive");
    }
    if (v.cores == 1 && !multicore_fields_at_defaults(v)) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " is single-core but carries multicore results");
    }
    result.totals.add(v);
    cell_aggs[v.cell].add(v);
    fp.add(v);
    result.verdicts.push_back(std::move(v));
  }

  // Declared aggregates and fingerprint must equal the recomputation —
  // the tamper/bit-rot/version-skew check.
  if (result.totals != read_aggregate(member(root, "totals"))) {
    throw ShardError("totals do not match the verdicts (corrupt shard file)");
  }
  const auto& jcells = as_array(member(root, "cells"), "cells");
  if (jcells.size() != cells) {
    throw ShardError("cell count does not match the sweep grid");
  }
  result.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    if (cell_aggs[c] != read_aggregate(member(jcells[c], "aggregate"))) {
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
  read_value(member(root, "elapsed_seconds"), "elapsed_seconds", false,
             result.elapsed_seconds);
  return result;
}

}  // namespace rtft::sweep
