// Benchmark-owned host measurement: wall/CPU clocks, rusage, a span log
// for the traced run, the per-layer metric table and the output digest.
// Nothing here reaches into the simulator; workloads feed it from the
// public accessors of the modules they drive.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall clock in seconds since an arbitrary epoch.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system) in seconds.
inline double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

inline std::uint64_t minor_faults_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// Peak resident set of this process so far, MiB.
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host-time spans of the traced run. Each span names its parent (-1 for
/// the root), so the log is a tree: workload -> setup/run -> phases and
/// region-mode epochs. Kept in memory and written out once at the end.
class SpanLog {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, wall_now(), 0.0, -1, -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = wall_now(); }
  /// Record an already-finished span; region-mode epochs also carry their
  /// simulated interval in picoseconds.
  void add(std::string name, int parent, double begin, double end,
           std::int64_t sim_begin_ps = -1, std::int64_t sim_end_ps = -1) {
    spans_.push_back(
        {std::move(name), parent, begin, end, sim_begin_ps, sim_end_ps});
  }

  std::string to_json() const {
    std::string out = "[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"begin_s\": %.9f, \"dur_s\": %.9f",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.parent, s.begin,
                    s.end - s.begin);
      out += buf;
      if (s.sim_begin_ps >= 0) {
        std::snprintf(buf, sizeof(buf),
                      ", \"sim_begin_ps\": %lld, \"sim_end_ps\": %lld",
                      static_cast<long long>(s.sim_begin_ps),
                      static_cast<long long>(s.sim_end_ps));
        out += buf;
      }
      out += "}";
    }
    return out + "\n]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double begin;
    double end;
    std::int64_t sim_begin_ps;
    std::int64_t sim_end_ps;
  };
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// when there is no log (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Named metric values; ordered so every dump is deterministic.
using Table = std::map<std::string, double>;

/// FNV-1a over the canonical text of the simulated outputs: equal digests
/// mean the model produced the same results, whatever the host time.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
