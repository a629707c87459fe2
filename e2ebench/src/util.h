// Shared plumbing for the end-to-end benchmark: clocks, seeded input
// streams, order statistics, benchmark-side spans and the metric record.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <time.h>

#include "crypto/block.h"

namespace e2e {

/// Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC, the clock the
/// library's obs::Tracer uses too, so spans from both sides line up).
inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread, in nanoseconds.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// User + system CPU of the whole process, in nanoseconds.
std::uint64_t process_cpu_ns();
/// Peak resident set of the process, in MB (1 MB = 2^20 bytes).
double peak_rss_mb();

inline double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// SplitMix64: derives independent, reproducible streams from the workload
/// seed (one per purpose), so adding a stream never shifts another.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t word() { return static_cast<std::uint32_t>(next() >> 32); }
  std::vector<std::uint32_t> words(std::size_t n) {
    std::vector<std::uint32_t> w(n);
    for (auto& x : w) x = word();
    return w;
  }
  arm2gc::crypto::Block block() {
    const std::uint64_t lo = next();
    return arm2gc::crypto::Block{lo, next()};
  }

 private:
  std::uint64_t s_;
};

/// Stream `purpose` of workload seed `seed`.
inline SplitMix stream(std::uint64_t seed, std::uint64_t purpose) {
  SplitMix m(seed ^ (purpose * 0xD1B54A32D192ED03ull));
  m.next();
  return SplitMix(m.next());
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);

/// Benchmark-side spans: recorded in memory around calls into the library's
/// public functions, written out once at the end as Chrome trace JSON. Spans
/// of one operation share its `op` id; `parent` is the enclosing span.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t id, parent, op;
    std::uint64_t ts_ns, dur_ns;
    std::uint32_t tid;
  };
  /// Spans are kept only in traced runs; untraced runs pay one branch.
  void enable() { enabled_ = true; }
  std::uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
  void add(const Span& s) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> ids_{1};
};

/// Small per-thread ordinal for span tids.
std::uint32_t thread_ordinal();

/// Ordered metric record: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    m_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& all() const {
    return m_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// Shortest round-trip decimal form of a double (valid JSON number).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace e2e
