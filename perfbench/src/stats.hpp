// Summary statistics and span arithmetic used by the benchmark's reports.
//
// Everything here is pure and header-only so the benchmark's own tests pin
// the math the published numbers rest on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A nearest-rank percentile together with the support behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // sample count the percentile was taken over
  std::size_t beyond = 0;   // samples strictly above the percentile's rank
  /// True when at least `kMinBeyond` samples lie beyond the rank, the rule
  /// for publishing a tail percentile (p90 needs >= 100 samples).
  bool supported = false;
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it (rank ceil(q*n), 1-based). q in (0, 1].
inline Percentile percentile(std::vector<double> v, double q) {
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q out of (0,1]");
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  // The epsilon keeps exact products like 0.9*100 at rank 90.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()) -
                                         1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

/// `stat` of each pass's samples, then the median over the passes that
/// have samples: a pass caught in a burst of host load moves the result
/// only as far as the median lets it. 0 when no pass has samples.
template <typename Stat>
double median_over_passes(const std::vector<std::vector<double>>& passes,
                          Stat stat) {
  std::vector<double> per_pass;
  for (const std::vector<double>& samples : passes) {
    if (!samples.empty()) per_pass.push_back(stat(samples));
  }
  return median(per_pass);
}

/// Geometric mean of strictly positive values; throws on an empty input or
/// a non-positive value (a task without a valid best has no GFLOPS to
/// average and must be counted as a failure instead).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean of nothing");
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0) || !std::isfinite(x)) {
      throw std::invalid_argument("geomean needs positive finite values");
    }
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// A closed time interval in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  double length() const { return end > start ? end - start : 0.0; }
};

/// Length of the union of `spans` clipped to `window`: overlapping spans
/// (parallel lanes, bootstrap fits on pool threads) count once.
inline double covered_within(std::vector<Interval> spans, Interval window) {
  for (Interval& s : spans) {
    s.start = std::max(s.start, window.start);
    s.end = std::min(s.end, window.end);
  }
  std::erase_if(spans, [](const Interval& s) { return s.end <= s.start; });
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const Interval& s : spans) {
    if (open && s.start <= cur_end) {
      cur_end = std::max(cur_end, s.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s.start;
    cur_end = s.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Self time of `parent`: its length minus the part its children cover.
inline double self_time(Interval parent, const std::vector<Interval>& children) {
  return parent.length() - covered_within(children, parent);
}

/// One open-loop operation: when it was due, when the generator actually
/// sent it, and when it was seen terminal.
struct OpenLoopOp {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  /// Latency counts from the due time, so a generator or server stall is
  /// charged to every operation it delays, not hidden by a late send.
  double latency() const { return done - due; }
  /// How late the generator ran; never negative (an early wake-up is on
  /// time).
  double lateness() const { return std::max(0.0, sent - due); }
};

}  // namespace perfbench
