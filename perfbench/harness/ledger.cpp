#include "harness/ledger.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

double timevalMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

/// Nearest-rank index of percentile p (0 < p <= 100, in steps of 0.1)
/// in n sorted values. Integer arithmetic, so p99 of 1000 samples is
/// exactly rank 990.
size_t rankIndex(double p, size_t n) {
  const auto tenths = static_cast<size_t>(std::lround(p * 10.0));
  const size_t rank = (tenths * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n) - 1;
}

}  // namespace

double processCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.userMs = timevalMs(ru.ru_utime);
  u.sysMs = timevalMs(ru.ru_stime);
  u.minorFaults = static_cast<uint64_t>(ru.ru_minflt);
  u.maxRssKb = static_cast<uint64_t>(ru.ru_maxrss);
  return u;
}

Usage Usage::since(const Usage& earlier) const {
  Usage d;
  d.userMs = userMs - earlier.userMs;
  d.sysMs = sysMs - earlier.sysMs;
  d.minorFaults = minorFaults - earlier.minorFaults;
  d.maxRssKb = maxRssKb - earlier.maxRssKb;
  return d;
}

void Usage::accumulate(const Usage& delta) {
  userMs += delta.userMs;
  sysMs += delta.sysMs;
  minorFaults += delta.minorFaults;
  maxRssKb += delta.maxRssKb;
}

std::string usageJson(const Usage& d) {
  return "{\"user_s\": " + jsonNumber(d.userMs / 1e3) +
         ", \"sys_s\": " + jsonNumber(d.sysMs / 1e3) +
         ", \"minflt\": " + std::to_string(d.minorFaults) + "}";
}

double peakRssMb() {
  return static_cast<double>(Usage::now().maxRssKb) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t idx = rankIndex(99.0, n);
  tail.percentile = 99.0;
  if (n < 2 * kTailMinBeyond) {
    idx = rankIndex(50.0, n);
    tail.percentile = 50.0;
  } else if (n - idx - 1 < kTailMinBeyond) {
    // Fewer than 1000 samples: the (kTailMinBeyond + 1)-th largest, and
    // the highest tenth of a percent whose nearest rank it is.
    idx = n - kTailMinBeyond - 1;
    tail.percentile = static_cast<double>((idx + 1) * 1000 / n) / 10.0;
  }
  tail.value = values[idx];
  tail.beyond = n - idx - 1;
  return tail;
}

void OpLedger::fail(std::string why) {
  ++failed_;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(std::move(why));
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

int Tracer::open(std::string name, std::string tag) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.tag = std::move(tag);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.usage = Usage::now();
  span.startUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           origin_)
                     .count();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.endUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
                   .count();
  span.usage = Usage::now().since(span.usage);
  // Spans close innermost-first (ScopedSpan); tolerate a mismatch by
  // unwinding to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> Tracer::durationsMs(std::string_view name,
                                        std::string_view tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && (tag.empty() || s.tag == tag)) {
      out.push_back(s.durationMs());
    }
  }
  return out;
}

Usage Tracer::usageOf(std::string_view name) const {
  Usage total;
  for (const Span& s : spans_) {
    if (s.name == name) total.accumulate(s.usage);
  }
  return total;
}

std::string Tracer::toJsonLines() const {
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"name\":" + jsonString(s.name) + ",\"tag\":" + jsonString(s.tag) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"start_us\":" + jsonNumber(s.startUs) +
           ",\"end_us\":" + jsonNumber(s.endUs) +
           ",\"user_ms\":" + jsonNumber(s.usage.userMs) +
           ",\"sys_ms\":" + jsonNumber(s.usage.sysMs) +
           ",\"minflt\":" + std::to_string(s.usage.minorFaults) +
           ",\"maxrss_kb\":" + std::to_string(s.usage.maxRssKb) + "}\n";
  }
  return out;
}

void MetricSet::set(const std::string& name, double value, std::string unit) {
  values_[name] = {value, std::move(unit)};
}

double MetricSet::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

std::string MetricSet::toJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out += ", ";
    first = false;
    out += jsonString(name) + ": {\"value\": " + jsonNumber(entry.first) +
           ", \"unit\": " + jsonString(entry.second) + "}";
  }
  return out + "}";
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string jsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
