/**
 * @file stats_selftest.cc
 * Self-test of the benchmark's statistics helpers (stats.h) and of its
 * metric table against BENCHMARK.json.
 *
 *   stats_selftest <path to BENCHMARK.json>
 *
 * Exits 0 when every check passes, 1 otherwise.
 */
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_reader.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestMedianAndQuartiles() {
  using perfbench::Median;
  using perfbench::QuartilesOf;
  Expect(Near(Median({3, 1, 2}), 2), "median of odd sample");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of even sample");
  Expect(Near(Median({7}), 7), "median of one value");
  // Reference values from Python: statistics.quantiles(data, n=4).
  const perfbench::Quartiles ten = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(Near(ten.q1, 2.75) && Near(ten.q3, 8.25), "quartiles of 1..10");
  const perfbench::Quartiles four = QuartilesOf({10, 40, 20, 30});
  Expect(Near(four.q1, 12.5) && Near(four.q3, 37.5), "quartiles of 4 values");
  const perfbench::Quartiles two = QuartilesOf({1, 2});
  Expect(Near(two.q1, 0.75) && Near(two.q3, 2.25), "quartiles of 2 values");
  bool threw = false;
  try {
    Median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Expect(threw, "median of nothing throws");
}

void TestPercentiles() {
  using perfbench::HighestSupportedPercentile;
  using perfbench::Percentile;
  using perfbench::SamplesBeyond;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 50), 50), "p50 of 1..100");
  Expect(Near(Percentile(hundred, 99), 99), "p99 of 1..100");
  Expect(Near(Percentile(hundred, 100), 100), "p100 is the maximum");
  Expect(Near(Percentile({5}, 1), 5), "percentile of one value");
  Expect(SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  Expect(SamplesBeyond(999, 99) == 9, "9 samples beyond p99 of 999");
  // The highest ladder percentile with >= 10 samples beyond it.
  Expect(HighestSupportedPercentile(0) == 0.0, "nothing supported at n=0");
  Expect(HighestSupportedPercentile(19) == 0.0, "n=19 supports no p50");
  Expect(HighestSupportedPercentile(20) == 50.0, "n=20 supports p50");
  Expect(HighestSupportedPercentile(99) == 50.0, "n=99 supports p50 only");
  Expect(HighestSupportedPercentile(100) == 90.0, "n=100 supports p90");
  Expect(HighestSupportedPercentile(999) == 90.0, "n=999 lacks p99");
  Expect(HighestSupportedPercentile(1000) == 99.0, "n=1000 supports p99");
  Expect(HighestSupportedPercentile(10000) == 99.9, "n=10000 supports p99.9");
  Expect(HighestSupportedPercentile(100000) == 99.99,
         "n=100000 supports p99.99");
  Expect(HighestSupportedPercentile(1000, 11) == 90.0,
         "a stricter tail rule lowers the percentile");
}

/// Every metric in BENCHMARK.json is in the table with the same unit and
/// direction and in the same section, and the table has no others.
void TestMetricTable(const std::string& benchmark_json) {
  std::ifstream file(benchmark_json);
  Expect(file.good(), "cannot read " + benchmark_json);
  if (!file.good()) return;
  std::stringstream text;
  text << file.rdbuf();
  const rago::JsonValue doc = rago::JsonValue::Parse(text.str());
  std::set<std::string> listed;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const bool end_to_end = std::string(section) == "end_to_end";
    for (const rago::JsonValue& metric : doc.At(section).Items()) {
      const std::string name = metric.At("name").AsString();
      listed.insert(name);
      const perfbench::MetricSpec* spec = perfbench::FindMetric(name);
      Expect(spec != nullptr, name + " is missing from the metric table");
      if (spec == nullptr) continue;
      Expect(metric.At("unit").AsString() == spec->unit,
             name + ": unit differs from the table");
      const std::string better = metric.At("better").AsString();
      Expect(better == (spec->better == perfbench::Better::kLower ? "lower"
                                                                  : "higher"),
             name + ": direction differs from the table");
      Expect(spec->end_to_end == end_to_end,
             name + ": listed in the wrong section");
    }
  }
  for (const perfbench::MetricSpec& spec : perfbench::MetricTable()) {
    Expect(listed.count(spec.name) == 1,
           std::string(spec.name) + " is not listed in BENCHMARK.json");
  }
  const perfbench::MetricSpec* setup = perfbench::FindMetric("setup_s");
  Expect(setup != nullptr && setup->better == perfbench::Better::kLower &&
             std::string(setup->unit) == "s",
         "setup_s is seconds, lower is better");
  Expect(perfbench::FindMetric("no_such_metric") == nullptr,
         "unknown names are not found");
}

}  // namespace

int main(int argc, char** argv) {
  TestMedianAndQuartiles();
  TestPercentiles();
  TestMetricTable(argc > 1 ? argv[1] : "BENCHMARK.json");
  if (failures > 0) {
    std::fprintf(stderr, "stats_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("stats_selftest: all checks passed\n");
  return 0;
}
