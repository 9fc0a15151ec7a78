// Small helpers shared by the benchmark's workloads: clocks, resident-set
// sampling, percentiles and the ordered metric list printed at the end.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 7;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Keeps a value the timed code computed, so the compiler cannot drop the
/// work that produced it.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Current resident set of this process in bytes (/proc/self/statm).
std::size_t current_rss_bytes();
/// Return freed heap pages to the system, so a later RSS baseline does not
/// carry the input generator's temporaries.
void release_free_memory();

/// Samples the resident set every couple of milliseconds on a background
/// thread and keeps the maximum; joined by stop() or the destructor.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  std::size_t stop();  ///< Joins the sampler; returns the peak in bytes.

 private:
  std::atomic<bool> running_{true};
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;
};

/// Private mkdtemp directory under `parent` (created if missing), removed
/// with everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fixed-size log-bucketed histogram of positive samples (0.1% wide
/// buckets from 1 us to ~1e6 s, interpolated within a bucket), so recording
/// millions of latencies neither allocates nor grows the resident set the
/// benchmark is measuring.
class LogHistogram {
 public:
  LogHistogram();
  void add(double value_ms);
  void clear();
  std::uint64_t count() const { return count_; }
  double percentile(double p) const;  ///< p in (0, 1].

 private:
  static constexpr double kMin = 1e-3;
  static constexpr double kRatio = 1.001;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// p-quantile (0..1) by nearest rank over a copy of the samples.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// Worker threads the benchmark may use: the machine's cores, at least 1.
std::size_t hardware_threads();

/// Ordered (name, value, unit) list; printed as the "metrics" object.
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
