#include "perfbench/bench_util.h"

#include <malloc.h>
#include <sched.h>
#include <stdlib.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

void release_free_memory() { malloc_trim(0); }

RssSampler::RssSampler()
    : peak_(current_rss_bytes()),
      thread_([this] {
        while (running_.load(std::memory_order_relaxed)) {
          const std::size_t rss = current_rss_bytes();
          if (rss > peak_.load(std::memory_order_relaxed)) {
            peak_.store(rss, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

RssSampler::~RssSampler() { stop(); }

std::size_t RssSampler::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
  return std::max(peak_.load(), current_rss_bytes());
}

TempDir::TempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = parent + "/perfbench.XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + parent);
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

LogHistogram::LogHistogram()
    : buckets_(static_cast<std::size_t>(std::log(1e9 / kMin) /
                                        std::log(kRatio)) +
               2) {}

void LogHistogram::add(double value_ms) {
  const double x = std::max(value_ms, kMin);
  const std::size_t i = std::min(
      buckets_.size() - 1,
      static_cast<std::size_t>(std::log(x / kMin) / std::log(kRatio)));
  ++buckets_[i];
  ++count_;
}

void LogHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(p * static_cast<double>(count_), 1.0,
                                 static_cast<double>(count_));
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(below + buckets_[i]) >= rank) {
      // Linear interpolation by rank inside the bucket's value range.
      const double lo = kMin * std::pow(kRatio, static_cast<double>(i));
      const double within = (rank - static_cast<double>(below)) /
                            static_cast<double>(buckets_[i]);
      return lo + (lo * kRatio - lo) * within;
    }
    below += buckets_[i];
  }
  return kMin * std::pow(kRatio, static_cast<double>(buckets_.size()));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max<int>(1, CPU_COUNT(&set));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void MetricList::set(const std::string& name, double value,
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

std::string MetricList::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    if (i != 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
