#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace servebench {

/// Nearest-rank percentile (q in (0, 1]): the smallest sample such that at
/// least ceil(q * n) samples are <= it. No interpolation, so every reported
/// latency is one that a statement actually took. 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Latency and rate of a closed-loop run, each the median over equal time
/// windows of that window's figure, so that a short disturbance from
/// outside the benchmark moves one window, not the reported value.
struct WindowedStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double rate_per_s = 0.0;
  /// Fewest statements any window held.
  size_t min_window_samples = 0;
};

/// `latency_us[i]` completed `done_s[i]` seconds into a run of `elapsed_s`
/// seconds; completions past the end count toward the last window.
inline WindowedStats Windowed(const std::vector<double>& latency_us,
                              const std::vector<double>& done_s,
                              double elapsed_s, size_t windows) {
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < latency_us.size(); ++i) {
    size_t w = static_cast<size_t>(done_s[i] / elapsed_s *
                                   static_cast<double>(windows));
    by_window[std::min(w, windows - 1)].push_back(latency_us[i]);
  }
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  WindowedStats out;
  out.min_window_samples = latency_us.size();
  const double window_s = elapsed_s / static_cast<double>(windows);
  for (const std::vector<double>& w : by_window) {
    p50.push_back(Percentile(w, 0.50));
    p99.push_back(Percentile(w, 0.99));
    rate.push_back(static_cast<double>(w.size()) / window_s);
    out.min_window_samples = std::min(out.min_window_samples, w.size());
  }
  out.p50_us = Median(std::move(p50));
  out.p99_us = Median(std::move(p99));
  out.rate_per_s = Median(std::move(rate));
  return out;
}

/// How one statement ended, from the client's side of the wire.
enum class Outcome {
  kOk,        // RESULT whose body the oracle accepted
  kError,     // ERROR other than a write-write conflict
  kConflict,  // ERROR carrying MQL0601 (first-writer-wins conflict)
  kBusy,      // shed by admission control
  kProtocol,  // unexpected message type or a lost reply stream
};

/// Statement outcome accounting behind failed_frac: every attempted
/// statement lands in exactly one bucket, and everything but kOk fails.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t conflicts = 0;
  uint64_t busy = 0;
  uint64_t protocol = 0;

  void Add(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kConflict: ++conflicts; break;
      case Outcome::kBusy: ++busy; break;
      case Outcome::kProtocol: ++protocol; break;
    }
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    ok += other.ok;
    errors += other.errors;
    conflicts += other.conflicts;
    busy += other.busy;
    protocol += other.protocol;
  }
  uint64_t failed() const { return errors + conflicts + busy + protocol; }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
