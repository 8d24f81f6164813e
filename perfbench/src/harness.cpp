#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::runtime_error("metric " + name + " was not recorded");
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    if (i > 0) out += ", ";
    out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

double Tracer::now_ms() const {
  return seconds_between(origin_, Clock::now()) * 1e3;
}

int Tracer::open(const std::string& name, int parent, int op) {
  const double now = now_ms();
  spans_.push_back({name, parent, op, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) { spans_[index(span)].end_ms = now_ms(); }

void Tracer::add(const std::string& name, int parent, int op,
                 double start_ms, double duration_ms) {
  spans_.push_back({name, parent, op, start_ms, start_ms + duration_ms});
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[index(s.parent)] -= s.end_ms - s.start_ms;
  }
  return self;
}

std::vector<std::pair<std::string, double>> Tracer::median_self_ms() const {
  const auto self = self_ms();
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name].push_back(self[i]);
  }
  std::vector<std::pair<std::string, double>> out;
  for (auto& [name, values] : by_name) {
    out.emplace_back(name, median(std::move(values)));
  }
  return out;
}

double Tracer::median_root_self_ms() const {
  const auto self = self_ms();
  std::vector<double> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) roots.push_back(self[i]);
  }
  return median(std::move(roots));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto self = self_ms();
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "  {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << ", \"name\": " << json_string(s.name)
        << ", \"start_ms\": " << json_number(s.start_ms)
        << ", \"end_ms\": " << json_number(s.end_ms)
        << ", \"self_ms\": " << json_number(self[i]) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"median_self_ms\": {";
  const auto medians = median_self_ms();
  for (std::size_t i = 0; i < medians.size(); ++i) {
    out << (i > 0 ? ", " : "") << json_string(medians[i].first) << ": "
        << json_number(medians[i].second);
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

} // namespace perfbench
