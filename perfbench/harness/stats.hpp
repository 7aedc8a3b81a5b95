// Sample statistics and naming rules shared by the harness and its
// self-test: percentiles, the tail sample-count rule, ratio bases and
// metric-name validity.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (p90 therefore needs >= 100 samples).
inline constexpr double kTailSamples = 10.0;

/// Percentile `p` in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). An empty sample set gives 0.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Whether `n` samples support percentile `p` under the tail rule. The
/// median (p <= 0.5) only needs one sample.
inline bool tail_supported(std::size_t n, double p) {
  if (n == 0) return false;
  if (p <= 0.5) return true;
  // Small epsilon: (1 - 0.9) * 100 is 9.999999999999998 in doubles.
  return (1.0 - p) * static_cast<double>(n) >= kTailSamples - 1e-9;
}

/// Smallest sample count whose tail beyond `p` holds kTailSamples.
inline std::size_t min_samples_for(double p) {
  if (p <= 0.5) return 1;
  return static_cast<std::size_t>(std::ceil(kTailSamples / (1.0 - p) - 1e-9));
}

/// num / den, where an empty base (den == 0) reads as 0: every ratio the
/// harness reports states its base, and "no work" is 0, never NaN.
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

inline double mean(const std::vector<double>& v) {
  return ratio(sum(v), static_cast<double>(v.size()));
}

/// Metric names: start with a letter or digit, at most 64 of letters,
/// digits, '_', '.', '-'.
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  for (char c : s) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Units: 1 to 16 of letters, digits, '_', '/', '%', '.', '-'.
inline bool valid_unit(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace perfbench
