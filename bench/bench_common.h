/**
 * @file bench_common.h
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation: same series, same axes, printed as aligned text tables.
 * Absolute values come from this repo's re-implementation of the
 * published cost models; the reproduction target is the *shape* (see
 * EXPERIMENTS.md).
 */
#ifndef RAGO_BENCH_BENCH_COMMON_H
#define RAGO_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "common/units.h"
#include "rago/optimizer.h"

namespace rago::bench {

/// Prints a section banner.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// True when `flag` (e.g. "--quick") appears among the arguments.
inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// The argument after `flag` (e.g. "--json out.json"); empty when the
/// flag is absent. A trailing flag with no value throws ConfigError.
inline std::string FlagValue(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) {
      RAGO_REQUIRE(i + 1 < argc, flag + " requires a value");
      return argv[i + 1];
    }
  }
  return "";
}

/**
 * Parses the shared `--json <path>` flag (machine-readable output for
 * perf-trajectory tracking, e.g. BENCH_*.json). Returns an empty
 * string when the flag is absent.
 */
inline std::string JsonOutputPath(int argc, char** argv) {
  return FlagValue(argc, argv, "--json");
}

/**
 * Version of the shared `--json` envelope every bench emits. Bump on
 * any incompatible shape change so the perf-trajectory tooling and the
 * regression comparator (bench_obs_trajectory --baseline) can refuse
 * documents they do not understand instead of misreading them.
 */
inline constexpr int kBenchJsonSchemaVersion = 1;

/**
 * Opens the shared envelope: {"schema_version": N, "bench": "<name>",
 * ...bench-specific fields...}. Callers append their fields and close
 * with FinishBenchJson. The round-trip tests pin this shape through
 * common/json_reader.h.
 */
inline JsonWriter StartBenchJson(const std::string& bench_name) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(kBenchJsonSchemaVersion);
  json.Key("bench").String(bench_name);
  return json;
}

/// Writes a finished JSON document to `path` (no-op on empty path).
inline void MaybeWriteJson(const std::string& path,
                           const JsonWriter& json) {
  if (path.empty()) {
    return;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  RAGO_REQUIRE(file != nullptr, "cannot open JSON output file: " + path);
  std::fputs(json.str().c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

/// Closes the envelope opened by StartBenchJson and writes it to
/// `path` when non-empty (the parsed `--json` flag).
inline void FinishBenchJson(JsonWriter& json, const std::string& path) {
  json.EndObject();
  MaybeWriteJson(path, json);
}

/// Moderate search grids that keep every harness under a minute.
inline opt::SearchOptions StandardGrid() {
  opt::SearchOptions options;
  options.batch_sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  options.decode_batch_sizes = {1, 4, 16, 64, 256, 1024};
  return options;
}

/// Coarser grid for the largest searches (Case IV, plan frontiers).
inline opt::SearchOptions CoarseGrid() {
  opt::SearchOptions options;
  options.batch_sizes = {1, 4, 16, 64, 256};
  options.decode_batch_sizes = {4, 16, 64, 256, 1024};
  return options;
}

/// Renders a Pareto frontier as TTFT / QPS/Chip rows.
inline void PrintFrontier(const std::string& title,
                          const std::vector<opt::ScheduledPoint>& points) {
  TextTable table(title);
  table.SetHeader({"TTFT (ms)", "QPS/Chip", "QPS", "TPOT (ms)", "chips"});
  for (const auto& point : points) {
    table.AddRow({TextTable::Num(ToMillis(point.perf.ttft), 5),
                  TextTable::Num(point.perf.qps_per_chip, 4),
                  TextTable::Num(point.perf.qps, 4),
                  TextTable::Num(ToMillis(point.perf.tpot), 4),
                  std::to_string(point.perf.chip_equivalents)});
  }
  table.Print();
}

/// Lowest TTFT among frontier points with throughput >= target.
inline double TtftAtThroughput(
    const std::vector<opt::ScheduledPoint>& frontier, double min_qpc) {
  double best = -1.0;
  for (const auto& point : frontier) {  // Sorted by ascending TTFT.
    if (point.perf.qps_per_chip >= min_qpc) {
      best = point.perf.ttft;
      break;
    }
  }
  return best;
}

}  // namespace rago::bench

#endif  // RAGO_BENCH_BENCH_COMMON_H
