#include "serving/runtime/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace rago::runtime {
namespace {

/// Exponential inter-event time at `rate`, clamped away from log(0).
double NextExponential(Rng& rng, double rate) {
  return -std::log(std::max(rng.NextDouble(), 1e-12)) / rate;
}

}  // namespace

ArrivalTrace
UniformTrace(int count, double qps) {
  RAGO_REQUIRE(count > 0 && qps > 0, "trace needs positive count and rate");
  ArrivalTrace trace;
  trace.arrivals.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    trace.arrivals.push_back(i / qps);
  }
  return trace;
}

ArrivalTrace
PoissonTrace(int count, double qps, uint64_t seed) {
  RAGO_REQUIRE(count > 0 && qps > 0, "trace needs positive count and rate");
  Rng rng(seed);
  ArrivalTrace trace;
  trace.arrivals.reserve(static_cast<size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += NextExponential(rng, qps);
    trace.arrivals.push_back(t);
  }
  return trace;
}

ArrivalTrace
BurstTrace(int count) {
  RAGO_REQUIRE(count > 0, "trace needs positive count");
  ArrivalTrace trace;
  trace.arrivals.assign(static_cast<size_t>(count), 0.0);
  return trace;
}

void
MmppOptions::Validate() const {
  RAGO_REQUIRE(quiet_qps > 0 && burst_qps > 0,
               "MMPP rates must be positive");
  RAGO_REQUIRE(mean_quiet_seconds > 0 && mean_burst_seconds > 0,
               "MMPP dwell times must be positive");
}

double
MmppOptions::MeanQps() const {
  Validate();
  return (quiet_qps * mean_quiet_seconds + burst_qps * mean_burst_seconds) /
         (mean_quiet_seconds + mean_burst_seconds);
}

ArrivalTrace
MmppTrace(int count, const MmppOptions& options, uint64_t seed) {
  RAGO_REQUIRE(count > 0, "trace needs positive count");
  options.Validate();
  Rng rng(seed);
  ArrivalTrace trace;
  trace.arrivals.reserve(static_cast<size_t>(count));

  bool burst = false;
  double t = 0.0;
  // Time at which the current state's exponential dwell expires.
  double switch_at = NextExponential(rng, 1.0 / options.mean_quiet_seconds);
  while (static_cast<int>(trace.arrivals.size()) < count) {
    const double rate = burst ? options.burst_qps : options.quiet_qps;
    const double candidate = t + NextExponential(rng, rate);
    if (candidate < switch_at) {
      t = candidate;
      trace.arrivals.push_back(t);
    } else {
      // The dwell expired first: toggle states and resample from the
      // new rate (the memoryless property makes the discarded
      // candidate statistically free).
      t = switch_at;
      burst = !burst;
      const double dwell = burst ? options.mean_burst_seconds
                                 : options.mean_quiet_seconds;
      switch_at = t + NextExponential(rng, 1.0 / dwell);
    }
  }
  return trace;
}

void
DiurnalOptions::Validate() const {
  RAGO_REQUIRE(mean_qps > 0, "diurnal mean rate must be positive");
  RAGO_REQUIRE(period_seconds > 0, "diurnal period must be positive");
  RAGO_REQUIRE(amplitude >= 0 && amplitude < 1,
               "diurnal amplitude must be in [0, 1)");
}

ArrivalTrace
DiurnalTrace(int count, const DiurnalOptions& options, uint64_t seed) {
  RAGO_REQUIRE(count > 0, "trace needs positive count");
  options.Validate();
  Rng rng(seed);
  ArrivalTrace trace;
  trace.arrivals.reserve(static_cast<size_t>(count));

  // Thinning: draw a homogeneous Poisson stream at the peak rate and
  // accept each point with probability rate(t) / peak.
  const double peak = options.mean_qps * (1.0 + options.amplitude);
  // Not M_PI: strict -std=c++17 (no GNU extensions) need not define it.
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double omega = kTwoPi / options.period_seconds;
  double t = 0.0;
  while (static_cast<int>(trace.arrivals.size()) < count) {
    t += NextExponential(rng, peak);
    const double rate =
        options.mean_qps * (1.0 + options.amplitude * std::sin(omega * t));
    if (rng.NextDouble() * peak < rate) {
      trace.arrivals.push_back(t);
    }
  }
  return trace;
}

void
SaveTrace(const ArrivalTrace& trace, const std::string& path) {
  RAGO_REQUIRE(!trace.arrivals.empty(), "cannot save an empty trace");
  std::FILE* file = std::fopen(path.c_str(), "w");
  RAGO_REQUIRE(file != nullptr, "cannot open trace file for write: " + path);
  bool ok =
      std::fprintf(file, "rago-trace v1 %zu\n", trace.arrivals.size()) >= 0;
  for (double arrival : trace.arrivals) {
    ok = std::fprintf(file, "%.17g\n", arrival) >= 0 && ok;
  }
  // fclose flushes the buffered tail: a full disk often fails only here.
  ok = std::fclose(file) == 0 && ok;
  RAGO_REQUIRE(ok, "cannot write trace file: " + path);
}

ArrivalTrace
LoadTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  RAGO_REQUIRE(file != nullptr, "cannot open trace file: " + path);
  size_t count = 0;
  const bool header_ok =
      std::fscanf(file, "rago-trace v1 %zu\n", &count) == 1;
  if (!header_ok || count == 0) {
    std::fclose(file);
    RAGO_REQUIRE(false, "malformed trace header in " + path);
  }
  ArrivalTrace trace;
  // The header count is untrusted input: cap the up-front reservation
  // so a corrupt header reports ConfigError (below, when arrivals run
  // out) instead of dying in a gigantic allocation.
  trace.arrivals.reserve(std::min<size_t>(count, 1 << 16));
  double previous = 0.0;  // Arrivals are non-negative and sorted.
  for (size_t i = 0; i < count; ++i) {
    double arrival = 0.0;
    if (std::fscanf(file, "%lg\n", &arrival) != 1 || arrival < previous ||
        !std::isfinite(arrival)) {
      std::fclose(file);
      RAGO_REQUIRE(false, "malformed arrival in trace file " + path);
    }
    previous = arrival;
    trace.arrivals.push_back(arrival);
  }
  std::fclose(file);
  return trace;
}

QueryStream
ZipfianQueryStream(int count, int64_t pool_rows, double skew,
                   uint64_t seed) {
  RAGO_REQUIRE(count > 0, "query stream needs positive count");
  RAGO_REQUIRE(pool_rows > 0, "query stream needs a non-empty pool");
  RAGO_REQUIRE(skew >= 0, "Zipf skew must be non-negative");
  // Inverse-CDF sampling over the rank weights 1/(r+1)^skew. The CDF
  // is precomputed once; each draw is a binary search, so streams over
  // large pools stay cheap and fully deterministic.
  std::vector<double> cdf(static_cast<size_t>(pool_rows));
  double total = 0.0;
  for (int64_t r = 0; r < pool_rows; ++r) {
    total += std::pow(static_cast<double>(r + 1), -skew);
    cdf[static_cast<size_t>(r)] = total;
  }
  Rng rng(seed);
  QueryStream stream;
  stream.rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = rng.NextDouble() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    stream.rows.push_back(
        std::min<int64_t>(it - cdf.begin(), pool_rows - 1));
  }
  return stream;
}

void
RepeatNeighborOptions::Validate() const {
  RAGO_REQUIRE(repeat_probability >= 0.0 && repeat_probability <= 1.0,
               "repeat probability must be in [0, 1]");
  RAGO_REQUIRE(window >= 1, "repeat window must be >= 1");
}

QueryStream
RepeatNeighborQueryStream(int count, int64_t pool_rows,
                          const RepeatNeighborOptions& options,
                          uint64_t seed) {
  RAGO_REQUIRE(count > 0, "query stream needs positive count");
  RAGO_REQUIRE(pool_rows > 0, "query stream needs a non-empty pool");
  options.Validate();
  Rng rng(seed);
  QueryStream stream;
  stream.rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const bool repeat =
        !stream.rows.empty() &&
        rng.NextDouble() < options.repeat_probability;
    if (repeat) {
      const auto span = std::min<size_t>(
          stream.rows.size(), static_cast<size_t>(options.window));
      const size_t back = static_cast<size_t>(rng.NextBounded(span));
      stream.rows.push_back(
          stream.rows[stream.rows.size() - 1 - back]);
    } else {
      stream.rows.push_back(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(pool_rows))));
    }
  }
  return stream;
}

double
OfferedQps(const ArrivalTrace& trace) {
  RAGO_REQUIRE(!trace.arrivals.empty(), "empty arrival trace");
  const double span = trace.arrivals.back();
  if (span <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(trace.arrivals.size()) / span;
}

ArrivalTrace
MergeTraces(const ArrivalTrace& a, const ArrivalTrace& b) {
  ArrivalTrace merged;
  merged.arrivals.resize(a.arrivals.size() + b.arrivals.size());
  std::merge(a.arrivals.begin(), a.arrivals.end(), b.arrivals.begin(),
             b.arrivals.end(), merged.arrivals.begin());
  return merged;
}

}  // namespace rago::runtime
