#include "support/policy.h"

#include <charconv>
#include <cstdlib>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "simfault/fault.h"

namespace simtomp::policy {
namespace {

uint32_t hardwareWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

Status parseNumber(std::string_view text, uint64_t lo, uint64_t hi,
                   uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end || *out < lo || *out > hi) {
    return Status::invalidArgument("not a number in " + std::to_string(lo) +
                                   ".." + std::to_string(hi));
  }
  return Status::ok();
}

// The block executor's 64 helper threads plus the launching thread.
Status parseHostWorkers(std::string_view text, uint32_t* out) {
  uint64_t n = 0;
  const Status s = parseNumber(text, 1, 65, &n);
  *out = static_cast<uint32_t>(n);
  return s;
}

Status parseSteps(std::string_view text, uint64_t* out) {
  return parseNumber(text, 1, kWatchdogOff - 1, out);
}

Status parseFaultPlan(std::string_view text, std::string* out) {
  const Result<simfault::FaultPlan> plan = simfault::FaultPlan::parse(text);
  if (!plan.isOk()) return plan.status();
  *out = std::string(text);
  return Status::ok();
}

template <typename T>
struct Spelling {
  std::string_view text;
  T value;
};

/// One table row, typed by the value it parses into.
template <typename T>
struct Row {
  FieldInfo info;
  T (*builtin)();
  Status (*parse)(std::string_view, T*);
  std::vector<Spelling<T>> spellings;
  T& (*of)(ExecPolicy&);
};

template <typename T>
std::string joinSpellings(const std::vector<Spelling<T>>& spellings,
                          std::string_view form) {
  std::string out;
  for (const Spelling<T>& s : spellings) {
    out += out.empty() ? "" : "|";
    out += s.text;
  }
  if (!form.empty()) out += (out.empty() ? "" : "|") + std::string(form);
  return out;
}

// One accessor per row, built on first use.
#define SIMTOMP_POLICY(field, Type, value, env, clause, builtin, parse, form, \
                       ...)                                                  \
  const auto& row_##field() {                                                \
    using T = decltype(std::declval<ExecPolicy&>().value);                   \
    static const Row<T> row = [] {                                           \
      Row<T> r{{#field, #value, env, clause, {}},                            \
               [] { return T(builtin); },                                    \
               parse,                                                        \
               {__VA_ARGS__},                                                \
               [](ExecPolicy& p) -> T& { return p.value; }};                 \
      r.info.spellings = joinSpellings(r.spellings, form);                   \
      return r;                                                              \
    }();                                                                     \
    return row;                                                              \
  }
#include "support/policy.def"
#undef SIMTOMP_POLICY

/// Call `fn` with `field`'s typed row.
template <typename Fn>
decltype(auto) withRow(Field field, Fn&& fn) {
  switch (field) {
#define SIMTOMP_POLICY(f, ...) \
  case Field::f:               \
    return fn(row_##f());
#include "support/policy.def"
#undef SIMTOMP_POLICY
  }
  return fn(row_hostWorkers());  // unreachable: the switch is exhaustive
}

template <typename T>
Status parseRow(const Row<T>& row, std::string_view text,
                std::string_view what, ExecPolicy& policy) {
  for (const Spelling<T>& s : row.spellings) {
    if (s.text == text) {
      row.of(policy) = s.value;
      return Status::ok();
    }
  }
  std::string why;
  if (row.parse != nullptr) {
    T value{};
    const Status parsed = row.parse(text, &value);
    if (parsed.isOk()) {
      row.of(policy) = std::move(value);
      return parsed;
    }
    why = "; " + parsed.message();
  }
  return Status::invalidArgument(std::string(what) + "=\"" +
                                 std::string(text) + "\": expected one of " +
                                 row.info.spellings + why);
}

template <typename T>
std::string_view nameOf(const Row<T>& row, const T& value) {
  for (const Spelling<T>& s : row.spellings) {
    if (s.value == value) return s.text;
  }
  return "auto";
}

}  // namespace

const FieldInfo& fieldInfo(Field field) {
  return withRow(field, [](const auto& row) -> const FieldInfo& {
    return row.info;
  });
}

std::string_view sourceName(Source source) {
  switch (source) {
    case Source::kExplicit: return "explicit";
    case Source::kEnv: return "env";
    case Source::kBuiltin: return "built-in";
  }
  return "?";
}

Status parseField(Field field, std::string_view text, std::string_view what,
                  ExecPolicy& policy) {
  return withRow(field, [&](const auto& row) {
    return parseRow(row, text, what, policy);
  });
}

Result<Source> resolveField(Field field, ExecPolicy& policy) {
  return withRow(field, [&](const auto& row) -> Result<Source> {
    auto& value = row.of(policy);
    if (value != std::remove_reference_t<decltype(value)>{}) {
      return Source::kExplicit;
    }
    // The env column is a string literal, so data() is NUL-terminated.
    const char* env = std::getenv(row.info.env.data());
    if (env == nullptr || *env == '\0') {
      value = row.builtin();
      return Source::kBuiltin;
    }
    const Status parsed = parseRow(row, env, row.info.env, policy);
    if (!parsed.isOk()) {
      value = row.builtin();
      return parsed;
    }
    return Source::kEnv;
  });
}

Result<ExecPolicy> resolve(ExecPolicy requested) {
  for (const Field field : kFields) {
    const Result<Source> source = resolveField(field, requested);
    if (!source.isOk()) return source.status();
  }
  return requested;
}

std::string valueText(Field field, const ExecPolicy& policy) {
  ExecPolicy copy = policy;
  return withRow(field, [&](const auto& row) -> std::string {
    const auto& value = row.of(copy);
    using T = std::remove_cvref_t<decltype(value)>;
    if (value == T{}) return "auto";
    for (const auto& s : row.spellings) {
      if (s.value == value) return std::string(s.text);
    }
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return value;
    } else {
      return "?";
    }
  });
}

std::string_view modeName(CheckMode mode) { return nameOf(row_check(), mode); }
std::string_view modeName(ProfileMode mode) {
  return nameOf(row_profile(), mode);
}
std::string_view modeName(TuneMode mode) { return nameOf(row_tune(), mode); }
std::string_view modeName(ResilienceMode mode) {
  return nameOf(row_resilience(), mode);
}
std::string_view modeName(FastPathMode mode) {
  return nameOf(row_fastPath(), mode);
}

}  // namespace simtomp::policy
