#pragma once
/// \file harness.hpp
/// Timing, statistics, metric collection and span tracing for the
/// closed-loop benchmark. Everything here lives in the benchmark's own
/// files: spans are recorded around calls into the library's public
/// functions, never inside the library.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Median wall seconds of `fn` over repetitions: one untimed warm-up
/// call, then at least `min_reps` timed calls and until `min_seconds`
/// of timed work accumulate (capped at `max_reps`). `prepare` runs
/// untimed before every call.
template <typename Prepare, typename Fn>
double median_seconds_prepared(Prepare&& prepare, Fn&& fn, int min_reps,
                               double min_seconds, int max_reps) {
  prepare();
  fn();
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < max_reps &&
         (static_cast<int>(times.size()) < min_reps || total < min_seconds)) {
    prepare();
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
  return median(std::move(times));
}

template <typename Fn>
double median_seconds(Fn&& fn, int min_reps = 5, double min_seconds = 0.2,
                      int max_reps = 200) {
  return median_seconds_prepared([] {}, fn, min_reps, min_seconds, max_reps);
}

/// Process peak resident set size in MB (getrusage).
double peak_rss_mb();

/// Ordered (name, value, unit) records, emitted as the result's
/// "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// In-memory span store. A span has a name, a parent (-1 for an op's
/// root span), and a [start, end) interval in ms since the tracer was
/// created; spans of one op share the op's index. Written out once, at
/// the end of the run.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int open(const std::string& name, int parent, int op);
  void close(int span);
  /// A span whose duration was measured elsewhere (the phase seconds a
  /// WorldStats reports): placed at `start_ms`, lasting `duration_ms`.
  void add(const std::string& name, int parent, int op, double start_ms,
           double duration_ms);
  double start_ms(int span) const { return spans_[index(span)].start_ms; }

  /// Per span name: median self time in ms (duration minus the part its
  /// children cover; children never overlap here).
  std::vector<std::pair<std::string, double>> median_self_ms() const;
  /// Median over root spans of their self time.
  double median_root_self_ms() const;
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    int op;
    double start_ms;
    double end_ms;
  };
  static std::size_t index(int span) { return static_cast<std::size_t>(span); }
  double now_ms() const;
  std::vector<double> self_ms() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string json_string(const std::string& text);
std::string json_number(double value);

} // namespace perfbench
