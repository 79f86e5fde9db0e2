#include "sweep/cli.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "sweep/export.hpp"
#include "sweep/fields.hpp"
#include "sweep/progress.hpp"

namespace rtft::sweep::cli {

namespace {

[[noreturn]] void bad_value(const char* flag, std::string_view value,
                            const std::string& reason) {
  throw ArgError(std::string(flag) + " " + reason + " (got '" +
                 std::string(value) + "')");
}

/// "'a', 'b' or 'c'": every name of the enum row's value range.
template <typename E>
std::string enum_names(const fields::Flag& flag) {
  std::string out;
  for (std::uint64_t i = flag.lo; i <= flag.hi; ++i) {
    if (i > flag.lo) out += i == flag.hi ? " or " : ", ";
    out += '\'';
    out += to_string(static_cast<E>(i));
    out += '\'';
  }
  return out;
}

}  // namespace

std::uint64_t parse_u64(const char* flag, std::string_view value,
                        std::uint64_t min, std::uint64_t max) {
  std::int64_t parsed = 0;
  if (!parse_int64(value, parsed) || parsed < 0) {
    bad_value(flag, value,
              "expects an unsigned decimal integer within the 64-bit "
              "signed range");
  }
  const std::uint64_t v = static_cast<std::uint64_t>(parsed);
  if (v < min || v > max) {
    bad_value(flag, value,
              "must be in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]");
  }
  return v;
}

double parse_positive_double(const char* flag, std::string_view value) {
  double parsed = 0.0;
  if (!parse_double(value, parsed) || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    bad_value(flag, value, "expects a finite number > 0");
  }
  return parsed;
}

ShardRequest parse_shard_request(std::string_view value) {
  const auto parts = split(value, '/');
  std::int64_t index = 0;
  std::int64_t count = 0;
  if (parts.size() != 2 || !parse_int64(parts[0], index) ||
      !parse_int64(parts[1], count) || index < 0 || count < 0) {
    bad_value("--shard", value,
              "expects I/N, two unsigned decimal integers within the "
              "64-bit signed range");
  }
  if (count == 0) bad_value("--shard", value, "shard count N must be >= 1");
  if (index >= count) {
    bad_value("--shard", value, "shard index I must be below the count N");
  }
  return {static_cast<std::uint64_t>(index),
          static_cast<std::uint64_t>(count)};
}

namespace {

/// Parses one flag value into `out`, which a bad value leaves untouched.
template <typename T>
void parse_value(const fields::Flag& flag, std::string_view text, T& out) {
  if constexpr (fields::kIsVector<T>) {
    T parsed;
    for (const std::string_view p : split(text, ',')) {
      parse_value(flag, p, parsed.emplace_back());
    }
    out = std::move(parsed);
  } else if constexpr (std::is_enum_v<T>) {
    try {
      fields::from_string(text, out);
    } catch (const std::exception&) {
      bad_value(flag.name, text, "expects " + enum_names<T>(flag));
    }
  } else if constexpr (std::is_same_v<T, double>) {
    if (flag.what == nullptr) {
      out = parse_positive_double(flag.name, text);
      return;
    }
    double v = 0.0;
    if (!parse_double(text, v) || !std::isfinite(v) ||
        v < static_cast<double>(flag.lo) || v > static_cast<double>(flag.hi)) {
      bad_value(flag.name, text,
                "expects " + std::string(flag.what) + " in [" +
                    std::to_string(flag.lo) + ", " + std::to_string(flag.hi) +
                    "]");
    }
    out = v;
  } else if constexpr (std::is_same_v<T, Duration>) {
    out = Duration::us(static_cast<std::int64_t>(
        parse_u64(flag.name, text, flag.lo, flag.hi)));
  } else {
    out = static_cast<T>(parse_u64(flag.name, text, flag.lo, flag.hi));
  }
}

/// Appends `v` in the spelling parse_value reads.
template <typename T>
void render_value(const T& v, std::string& out) {
  if constexpr (fields::kIsVector<T>) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      render_value(v[i], out);
    }
  } else if constexpr (std::is_enum_v<T>) {
    out += to_string(v);
  } else if constexpr (std::is_same_v<T, double>) {
    detail::append_double(out, v);  // %.17g: bit-exact through parse_double.
  } else if constexpr (std::is_same_v<T, Duration>) {
    out += std::to_string(v.count() / 1000);
  } else {
    out += std::to_string(v);
  }
}

}  // namespace

bool apply_sweep_flag(std::string_view arg,
                      const std::function<std::string()>& value,
                      SweepOptions& opts) {
  bool claimed = false;
  fields::for_each_option(
      [&](const auto& f, auto& member) {
        if (claimed || f.flag.name == nullptr || arg != f.flag.name) return;
        claimed = true;
        parse_value(f.flag, value(), member);
      },
      opts);
  return claimed;
}

std::vector<std::string> worker_argv(const std::string& runner,
                                     const SweepOptions& opts,
                                     const ShardSpec& shard,
                                     const std::string& emit_path) {
  RTFT_EXPECTS(!runner.empty(), "worker argv needs a runner binary path");
  // Everything that defines the scenario population must survive the
  // trip through the runner's flags, or the worker computes a different
  // sweep and the merge rejects its shard: a row without a flag must sit
  // at its default, and every flagged value must read back unchanged.
  const SweepOptions defaults;
  std::vector<std::string> argv{runner};
  fields::for_each_option(
      [&](const auto& f, const auto& value, const auto& default_value) {
        if (f.flag.name == nullptr) {
          RTFT_EXPECTS(value == default_value,
                       "the runner CLI cannot express a non-default " +
                           std::string(f.key));
          return;
        }
        std::string rendered;
        render_value(value, rendered);
        auto read_back = value;
        bool parsed = true;
        try {
          parse_value(f.flag, rendered, read_back);
        } catch (const ArgError&) {
          parsed = false;
        }
        RTFT_EXPECTS(parsed && read_back == value,
                     std::string(f.flag.name) + " cannot express " + rendered);
        argv.emplace_back(f.flag.name);
        argv.push_back(std::move(rendered));
      },
      opts, defaults);
  argv.emplace_back("--shard");
  argv.push_back(std::to_string(shard.index) + "/" +
                 std::to_string(shard.shards));
  argv.emplace_back("--emit-shard");
  argv.push_back(emit_path);
  argv.emplace_back("--progress");
  return argv;
}

std::function<void(std::uint64_t, std::uint64_t)> stderr_progress_printer() {
  struct State {
    bool have = false;
    std::uint64_t printed = 0;
  };
  auto state = std::make_shared<State>();
  const bool tty = ::isatty(::fileno(stderr)) != 0;
  return [state, tty](std::uint64_t done, std::uint64_t total) {
    const std::uint64_t step = total < 100 ? 1 : total / 100;
    if (state->have && done == state->printed) return;
    // Throttle forward motion to ~1% steps; the final value and any
    // backward jump (a coordinator aggregate that lost a worker's
    // in-flight attempt) always print.
    if (state->have && done > state->printed && done != total &&
        done < state->printed + step) {
      return;
    }
    state->have = true;
    state->printed = done;
    if (tty) {
      std::fprintf(stderr, "\r%llu/%llu scenarios (%3.0f%%)",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total),
                   100.0 * static_cast<double>(done) /
                       static_cast<double>(total == 0 ? 1 : total));
      if (done == total) std::fputc('\n', stderr);
    } else {
      const std::string line = progress_line({done, total});
      std::fwrite(line.data(), 1, line.size(), stderr);
    }
  };
}

}  // namespace rtft::sweep::cli
