// Shared helpers for the table-reproduction benches: fixed-width table
// printing, paper-value annotations so every bench binary prints "measured
// vs paper" rows, and monotonic-clock timing (re-exported from
// src/support/timer.h — the same helpers the batch-pipeline stats use, so
// bench numbers and pipeline numbers come off the same clock).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/support/timer.h"

namespace dexlego::bench {

// Monotonic timing, shared with src/pipeline via src/support/timer.h.
using support::MeanStd;
using support::Stopwatch;
using support::mean_std;
using support::time_call_ms;

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

// Median and interquartile range of a non-empty sample set (linear
// interpolation between order statistics).
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

inline Spread spread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  auto quantile = [&samples](double q) {
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

inline std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", v * 100.0);
  return buf;
}

}  // namespace dexlego::bench
