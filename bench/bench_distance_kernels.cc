/**
 * @file bench_distance_kernels.cc
 * Distance-kernel micro-benchmark: GB/s and distance evals/s per
 * compiled kernel variant (scalar / avx2 / avx512) for the batched
 * L2 / inner-product, multi-query micro-tile, and packed (fast-scan)
 * PQ ADC kernels, plus the headline speedup the acceptance band
 * tracks: batched-AVX2 vs scalar-single-row. The working set is sized to stay cache-resident so the numbers reflect
 * kernel arithmetic, not DRAM. The high-plane slots (l2sq_hi_batch,
 * dot_hi_batch) are charged 2 * dim bytes per row, the half-words
 * they read.
 *
 * A second section measures what the split-plane layout is for: exact
 * IVF list scans (ScanSplitRowsIntoTopK vs ScanRowsIntoTopK's loop over
 * the same rows, per variant), each query probing its two nearest
 * k-means lists of a clustered 16 MB working set (larger than a core's
 * L2), reporting ns per probed row, the fraction of rows verified in
 * fp32, and the split-vs-fp32 speedup. The two scans must return
 * bit-identical neighbors; a mismatch fails the run.
 *
 * Accepts `--json out.json` like the other harnesses. The report is
 * printed on any host — including non-AVX or 1-core containers, where
 * the dispatched variant simply equals scalar; speedup-band
 * enforcement lives in multi-core CI, not here (see ROADMAP).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/huge_page_arena.h"
#include "common/rng.h"
#include "retrieval/ann/coarse_rank.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/kmeans.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/ann/topk.h"

namespace {

using Clock = std::chrono::steady_clock;
using rago::HugePageArena;
using rago::Rng;
namespace kernels = rago::ann::kernels;

/// Keeps measured loops from being optimized away.
volatile float g_sink = 0.0f;

struct Measurement {
  double seconds = 0.0;
  int64_t reps = 0;
};

/// Runs `body` until ~0.2 s has elapsed (at least 3 reps) and returns
/// total time and rep count.
template <typename Body>
Measurement MeasureFor(Body&& body) {
  constexpr double kTargetSeconds = 0.2;
  Measurement m;
  const Clock::time_point start = Clock::now();
  do {
    body();
    ++m.reps;
    m.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  } while (m.seconds < kTargetSeconds || m.reps < 3);
  return m;
}

struct KernelResult {
  std::string kernel;
  std::string variant;
  double gb_per_sec = 0.0;
  double evals_per_sec = 0.0;
};

/// One variant's list-scan comparison.
struct SplitScanResult {
  std::string variant;
  double fp32_ns_per_row = 0.0;       ///< fp32 rows on 4 KB heap pages.
  double fp32_huge_ns_per_row = 0.0;  ///< fp32 rows on a huge-page arena.
  double split_ns_per_row = 0.0;      ///< Split planes on a huge-page arena.
  double verified_frac = 0.0;
  int64_t mismatches = 0;
};

/**
 * An IVF-shaped database stored three ways — list-contiguous fp32 rows
 * on ordinary heap pages (the layout IvfIndex used to keep), the same
 * rows on a huge-page arena, and split planes on a huge-page arena
 * (what IvfIndex keeps now), so the layout's and the pages' shares of
 * the speedup show separately. A clustered corpus is cut into k-means
 * lists of ~195 rows and each query probes its `kProbes` nearest lists,
 * as IvfIndex does, so the probed rows are scattered over a working set
 * larger than a core's L2.
 */
class ListScanBench {
 public:
  static constexpr size_t kRows = 65536;  // 16 MB of 64-d fp32 rows.
  static constexpr size_t kDim = 64;
  static constexpr int kLists = 336;  // ~195 rows per list.
  static constexpr int kProbes = 2;
  static constexpr size_t kQueries = 512;
  static constexpr size_t kTopK = 10;

  ListScanBench()
      : rows_(kRows, kDim), huge_rows_(kRows * kDim * sizeof(float)),
        planes_(2 * kRows * kDim * sizeof(uint16_t) + kRows * sizeof(float)),
        hi_(static_cast<uint16_t*>(planes_.data())),
        lo_(hi_ + kRows * kDim),
        residuals_(reinterpret_cast<float*>(lo_ + kRows * kDim)) {
    Rng rng(5);
    const rago::ann::Matrix corpus =
        rago::ann::GenClustered(kRows, kDim, 256, 2.5f, rng);
    const rago::ann::KMeansResult lists =
        rago::ann::TrainKMeans(corpus, kLists, rng, /*max_iterations=*/4);
    std::vector<std::vector<size_t>> members(kLists);
    for (size_t i = 0; i < kRows; ++i) {
      members[static_cast<size_t>(lists.assignments[i])].push_back(i);
    }
    size_t next = 0;
    for (const std::vector<size_t>& list : members) {
      list_begin_.push_back(next);
      for (size_t i : list) {
        rows_.CopyRowFrom(corpus, i, next);
        kernels::SplitRow(rows_.Row(next), kDim, hi_ + next * kDim,
                          lo_ + next * kDim);
        residuals_[next] = kernels::SplitResidualBound(
            rago::ann::Metric::kL2, rows_.Row(next), kDim);
        ++next;
      }
    }
    list_begin_.push_back(next);
    std::copy_n(rows_.data(), kRows * kDim,
                static_cast<float*>(huge_rows_.data()));
    const rago::ann::Matrix queries =
        rago::ann::GenQueriesNear(corpus, kQueries, 0.1f, rng);
    queries_ = queries.Clone();
    probes_ = rago::ann::RankCentroidsBatch(queries, lists.centroids,
                                            kProbes);
    for (const std::vector<int32_t>& probed : probes_) {
      for (int32_t list : probed) {
        probed_rows_ += ListRows(list);
      }
    }
  }

  bool HugePagesAdvised() const { return planes_.advised_bytes() > 0; }

  SplitScanResult Run(const char* name, const kernels::KernelTable& table) {
    SplitScanResult result;
    result.variant = name;
    std::vector<std::vector<rago::ann::Neighbor>> fp32_out;
    std::vector<std::vector<rago::ann::Neighbor>> split_out;
    std::vector<float> scratch;
    auto measure_fp32 = [&](const float* rows) {
      return MeasureFor([&] {
        fp32_out.clear();
        for (size_t q = 0; q < kQueries; ++q) {
          rago::ann::TopK topk(kTopK);
          for (int32_t list : probes_[q]) {
            ScanFp32(table, queries_.Row(q), rows, list, topk, scratch);
          }
          fp32_out.push_back(topk.SortedTake());
        }
      });
    };
    const Measurement fp32 = measure_fp32(rows_.data());
    const Measurement fp32_huge =
        measure_fp32(static_cast<const float*>(huge_rows_.data()));
    size_t verified = 0;
    const Measurement split = MeasureFor([&] {
      split_out.clear();
      verified = 0;
      for (size_t q = 0; q < kQueries; ++q) {
        rago::ann::TopK topk(kTopK);
        for (int32_t list : probes_[q]) {
          const size_t begin = list_begin_[static_cast<size_t>(list)];
          const kernels::SplitRows split_rows{hi_ + begin * kDim,
                                              lo_ + begin * kDim,
                                              residuals_ + begin};
          verified += kernels::ScanSplitRowsIntoTopK(
              table, rago::ann::Metric::kL2, queries_.Row(q), split_rows,
              ListRows(list), kDim, /*ids=*/nullptr,
              static_cast<int64_t>(begin), topk);
        }
        split_out.push_back(topk.SortedTake());
      }
    });
    auto ns_per_row = [&](const Measurement& m) {
      return m.seconds * 1e9 / (static_cast<double>(m.reps) *
                                static_cast<double>(probed_rows_));
    };
    const double rows_per_rep = static_cast<double>(probed_rows_);
    result.fp32_ns_per_row = ns_per_row(fp32);
    result.fp32_huge_ns_per_row = ns_per_row(fp32_huge);
    result.split_ns_per_row = ns_per_row(split);
    result.verified_frac = static_cast<double>(verified) / rows_per_rep;
    for (size_t q = 0; q < kQueries; ++q) {
      if (fp32_out[q].size() != split_out[q].size()) {
        ++result.mismatches;
        continue;
      }
      for (size_t i = 0; i < fp32_out[q].size(); ++i) {
        if (fp32_out[q][i].id != split_out[q][i].id ||
            fp32_out[q][i].dist != split_out[q][i].dist) {
          ++result.mismatches;
        }
      }
    }
    return result;
  }

 private:
  size_t ListRows(int32_t list) const {
    const auto l = static_cast<size_t>(list);
    return list_begin_[l + 1] - list_begin_[l];
  }

  /// ScanRowsIntoTopK's loop over one list of `rows`, through a chosen
  /// table.
  void ScanFp32(const kernels::KernelTable& table, const float* query,
                const float* rows, int32_t list, rago::ann::TopK& topk,
                std::vector<float>& scratch) const {
    const size_t begin = list_begin_[static_cast<size_t>(list)];
    const size_t count = ListRows(list);
    if (count == 0) {
      return;
    }
    scratch.resize(count);
    table.l2sq_batch(query, rows + begin * kDim, count, kDim,
                     scratch.data());
    for (size_t i = 0; i < count; ++i) {
      topk.Push(scratch[i], static_cast<int64_t>(begin + i));
    }
  }

  rago::ann::Matrix rows_;
  HugePageArena huge_rows_;
  HugePageArena planes_;
  uint16_t* hi_;
  uint16_t* lo_;
  float* residuals_;
  std::vector<size_t> list_begin_;
  rago::ann::Matrix queries_;
  std::vector<std::vector<int32_t>> probes_;
  size_t probed_rows_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rago;
  using namespace rago::bench;

  // 4096 x 128-d float rows = 2 MB: streams from L2/L3, so variants
  // are compared on kernel arithmetic rather than DRAM bandwidth.
  const size_t rows = 4096;
  const size_t dim = 128;
  const size_t tile_queries = 8;
  const size_t pq_m = 16;
  Rng rng(99);
  std::vector<float> data(rows * dim);
  for (float& x : data) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> queries(tile_queries * dim);
  for (float& x : queries) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> adc_table(pq_m * kernels::kAdcCentroids);
  for (float& x : adc_table) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<uint8_t> codes(rows * pq_m);
  for (uint8_t& c : codes) {
    c = static_cast<uint8_t>(rng.NextBounded(kernels::kAdcCentroids));
  }
  const rago::ann::PackedCodes packed(codes.data(), rows, pq_m);
  std::vector<float> out(tile_queries * rows);
  std::vector<uint16_t> hi_plane(rows * dim);
  std::vector<uint16_t> lo_plane(rows * dim);
  for (size_t i = 0; i < rows; ++i) {
    kernels::SplitRow(data.data() + i * dim, dim, hi_plane.data() + i * dim,
                      lo_plane.data() + i * dim);
  }

  Banner("Distance-kernel throughput (4096 x 128-d rows, cache-resident)");
  std::printf(
      "avx2 compiled: %s | avx2 supported: %s | avx512 compiled: %s | "
      "avx512 supported: %s | dispatched: %s%s\n",
      kernels::Avx2KernelsCompiled() ? "yes" : "no",
      kernels::CpuSupportsAvx2() ? "yes" : "no",
      kernels::Avx512KernelsCompiled() ? "yes" : "no",
      kernels::CpuSupportsAvx512() ? "yes" : "no", kernels::Active().name,
      kernels::ForceScalarActive() ? " (forced)" : "");

  const double row_bytes = static_cast<double>(rows * dim * sizeof(float));
  const double code_bytes = static_cast<double>(rows * pq_m);
  const double hi_bytes =
      static_cast<double>(rows * dim * sizeof(uint16_t));
  std::vector<KernelResult> results;

  // The scalar-single-row baseline the acceptance speedup is defined
  // against: one kernel invocation per row, like the legacy per-row
  // Distance() loops the batched layer replaced.
  double scalar_single_evals_per_sec = 0.0;
  {
    const kernels::KernelTable& scalar = kernels::ScalarKernels();
    const Measurement m = MeasureFor([&] {
      for (size_t i = 0; i < rows; ++i) {
        scalar.l2sq_batch(queries.data(), data.data() + i * dim, 1, dim,
                          out.data() + i);
      }
      g_sink += out[rows / 2];
    });
    const double per_sec = static_cast<double>(m.reps) / m.seconds;
    scalar_single_evals_per_sec = per_sec * static_cast<double>(rows);
    results.push_back({"l2sq_single_row", "scalar", per_sec * row_bytes / 1e9,
                       scalar_single_evals_per_sec});
  }

  struct Variant {
    const char* name;
    const kernels::KernelTable* table;
  };
  // Every compiled-in, host-supported tier side by side.
  std::vector<Variant> variants;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (const kernels::KernelTable* table = kernels::VariantByName(name)) {
      variants.push_back({name, table});
    }
  }

  double avx2_batch_evals_per_sec = 0.0;
  for (const Variant& variant : variants) {
    const kernels::KernelTable& table = *variant.table;
    {
      const Measurement m = MeasureFor([&] {
        table.l2sq_batch(queries.data(), data.data(), rows, dim, out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      results.push_back({"l2sq_batch", variant.name,
                         per_sec * row_bytes / 1e9,
                         per_sec * static_cast<double>(rows)});
      if (std::string(variant.name) == "avx2") {
        avx2_batch_evals_per_sec = per_sec * static_cast<double>(rows);
      }
    }
    {
      const Measurement m = MeasureFor([&] {
        table.dot_batch(queries.data(), data.data(), rows, dim, out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      results.push_back({"dot_batch", variant.name,
                         per_sec * row_bytes / 1e9,
                         per_sec * static_cast<double>(rows)});
    }
    {
      const Measurement m = MeasureFor([&] {
        table.l2sq_tile(queries.data(), tile_queries, data.data(), rows, dim,
                        out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      // The tile streams each row once for all queries: bytes touched
      // stay one pass, evals multiply by the query count.
      results.push_back(
          {"l2sq_tile_q8", variant.name, per_sec * row_bytes / 1e9,
           per_sec * static_cast<double>(rows * tile_queries)});
    }
    {
      const Measurement m = MeasureFor([&] {
        table.adc_packed(adc_table.data(), packed.data(), rows, pq_m,
                         out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      results.push_back({"adc_packed_m16", variant.name,
                         per_sec * code_bytes / 1e9,
                         per_sec * static_cast<double>(rows)});
    }
    {
      const Measurement m = MeasureFor([&] {
        table.l2sq_hi_batch(queries.data(), hi_plane.data(), rows, dim,
                            out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      results.push_back({"l2sq_hi_batch", variant.name,
                         per_sec * hi_bytes / 1e9,
                         per_sec * static_cast<double>(rows)});
    }
    {
      const Measurement m = MeasureFor([&] {
        table.dot_hi_batch(queries.data(), hi_plane.data(), rows, dim,
                           out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      results.push_back({"dot_hi_batch", variant.name,
                         per_sec * hi_bytes / 1e9,
                         per_sec * static_cast<double>(rows)});
    }
  }

  TextTable table_out;
  table_out.SetHeader({"kernel", "variant", "GB/s", "evals/s"});
  for (const KernelResult& r : results) {
    table_out.AddRow({r.kernel, r.variant, TextTable::Num(r.gb_per_sec, 4),
                      TextTable::Num(r.evals_per_sec, 4)});
  }
  table_out.Print();

  const double speedup =
      avx2_batch_evals_per_sec > 0.0
          ? avx2_batch_evals_per_sec / scalar_single_evals_per_sec
          : 0.0;
  if (avx2_batch_evals_per_sec > 0.0) {
    std::printf(
        "\nAVX2 batched L2 vs scalar single-row: %.2fx "
        "(acceptance band: >= 4x on AVX2 hosts; enforced in CI, "
        "reported everywhere)\n",
        speedup);
  } else {
    std::printf(
        "\nAVX2 kernels unavailable on this host; scalar-only report "
        "(speedup band deferred to AVX2 CI runners)\n");
  }

  Banner("Exact IVF list scans: split planes vs fp32 rows (65536 x 64-d, "
         "16 MB, 336 k-means lists, 2 nearest probed, top-10)");
  ListScanBench list_bench;
  std::vector<SplitScanResult> split_scans;
  int64_t split_mismatches = 0;
  for (const Variant& variant : variants) {
    split_scans.push_back(list_bench.Run(variant.name, *variant.table));
    split_mismatches += split_scans.back().mismatches;
  }
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  TextTable split_table;
  split_table.SetHeader({"variant", "fp32 4K ns/row", "fp32 2M ns/row",
                         "split 2M ns/row", "verified frac",
                         "vs fp32 4K", "vs fp32 2M", "mismatches"});
  for (const SplitScanResult& r : split_scans) {
    split_table.AddRow(
        {r.variant, TextTable::Num(r.fp32_ns_per_row, 4),
         TextTable::Num(r.fp32_huge_ns_per_row, 4),
         TextTable::Num(r.split_ns_per_row, 4),
         TextTable::Num(r.verified_frac, 4),
         TextTable::Num(ratio(r.fp32_ns_per_row, r.split_ns_per_row), 4),
         TextTable::Num(ratio(r.fp32_huge_ns_per_row, r.split_ns_per_row),
                        4),
         std::to_string(r.mismatches)});
  }
  split_table.Print();
  std::printf(
      "(4K: fp32 lists on ordinary heap pages, the old IvfIndex layout; "
      "2M: on a huge-page arena%s)\n",
      list_bench.HugePagesAdvised() ? "" : " -- advice unavailable here");

  JsonWriter json = StartBenchJson("distance_kernels");
  json.Key("rows").Int(static_cast<int64_t>(rows));
  json.Key("dim").Int(static_cast<int64_t>(dim));
  json.Key("tile_queries").Int(static_cast<int64_t>(tile_queries));
  json.Key("pq_subspaces").Int(static_cast<int64_t>(pq_m));
  json.Key("avx2_compiled").Bool(kernels::Avx2KernelsCompiled());
  json.Key("avx2_supported").Bool(kernels::CpuSupportsAvx2());
  json.Key("avx512_compiled").Bool(kernels::Avx512KernelsCompiled());
  json.Key("avx512_supported").Bool(kernels::CpuSupportsAvx512());
  json.Key("avx2_batch_vs_scalar_single_speedup").Number(speedup);
  json.Key("split_scans").BeginArray();
  for (const SplitScanResult& r : split_scans) {
    json.BeginObject();
    json.Key("variant").String(r.variant);
    json.Key("fp32_ns_per_row").Number(r.fp32_ns_per_row);
    json.Key("fp32_hugepage_ns_per_row").Number(r.fp32_huge_ns_per_row);
    json.Key("split_ns_per_row").Number(r.split_ns_per_row);
    json.Key("verified_frac").Number(r.verified_frac);
    json.Key("split_vs_fp32_speedup")
        .Number(ratio(r.fp32_ns_per_row, r.split_ns_per_row));
    json.Key("split_vs_fp32_hugepage_speedup")
        .Number(ratio(r.fp32_huge_ns_per_row, r.split_ns_per_row));
    json.Key("mismatches").Int(r.mismatches);
    json.EndObject();
  }
  json.EndArray();
  json.Key("results").BeginArray();
  for (const KernelResult& r : results) {
    json.BeginObject();
    json.Key("kernel").String(r.kernel);
    json.Key("variant").String(r.variant);
    json.Key("gb_per_sec").Number(r.gb_per_sec);
    json.Key("evals_per_sec").Number(r.evals_per_sec);
    json.EndObject();
  }
  json.EndArray();
  FinishBenchJson(json, JsonOutputPath(argc, argv));
  if (split_mismatches > 0) {
    std::fprintf(stderr,
                 "split-plane scan diverged from the fp32 scan on %lld "
                 "neighbor(s)\n",
                 static_cast<long long>(split_mismatches));
    return 1;
  }
  return 0;
}
