// Hot-path bench for the SIMD-vectorized compact serving walk: per-kernel
// microbenchmarks (ns/entry per dispatch level x id width x run length),
// the end-to-end walk at every dispatch level with its cost split into
// descent (MatchedDepth) vs score+merge, the legacy sparse sort-merge for
// comparison, and a self-reported speedup row (vectorized over forced
// scalar, dense over sparse). Emits BENCH_hotpath.json (see bench/README.md)
// as the tracked perf surface of the scoring kernels.
//
// The binary also self-enforces the correctness bar: before any timing is
// reported it replays every context through the dense walk at every
// supported dispatch level and requires bit-identical recommendations to
// the legacy sparse path, exiting nonzero on any mismatch.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/serve_kernels.h"
#include "harness.h"
#include "util/timer.h"

namespace {

using namespace sqp;
using sqp::bench::Harness;

struct Row {
  std::string name;
  std::string level;    // dispatch level ("" = not level-specific)
  std::string width;    // kernel rows: "u16" / "u32"
  std::string variant;  // walk rows: "dense" / "sparse"
  size_t run_len = 0;
  double ns_per_entry = 0.0;
  double recommend_ns = 0.0;
  double match_ns = 0.0;
  double merge_score_ns = 0.0;
  double qps = 0.0;
  double vectorized_over_scalar = 0.0;
  double dense_over_sparse = 0.0;
  int ok = -1;  // equivalence rows: 1/0; -1 = field unused
};

std::vector<kernels::SimdLevel> SupportedLevels() {
  std::vector<kernels::SimdLevel> levels;
  for (int i = 0; i < kernels::kNumSimdLevels; ++i) {
    const auto level = static_cast<kernels::SimdLevel>(i);
    if (kernels::LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

/// Covered test contexts (length <= 5), as in serve_throughput.
std::vector<std::vector<QueryId>> Contexts(const Harness& harness) {
  std::vector<std::vector<QueryId>> out;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) out.push_back(entry.context);
    if (out.size() >= 4096) break;
  }
  return out;
}

// ------------------------------------------------- kernel microbenchmark

/// ns/entry of one kernel over a synthetic run of `run_len` entries,
/// repeated until ~10ms of work. Query ids repeat (range run_len/2) so the
/// accumulate branch is exercised like a real multi-level walk.
template <typename QT>
double MeasureKernelNs(const kernels::KernelTable& table, size_t run_len,
                       uint64_t seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  const uint32_t id_range = std::max<uint32_t>(1, run_len / 2);
  std::vector<QT> queries(run_len);
  std::vector<uint16_t> codes(run_len);
  for (size_t i = 0; i < run_len; ++i) {
    queries[i] = static_cast<QT>(rng() % id_range);
    codes[i] = static_cast<uint16_t>(1 + rng() % 60000);
  }
  kernels::AccumulatorStorage storage;
  // Warm-up + calibration.
  kernels::DenseAccumulator acc = storage.BeginGeneration(id_range);
  ScoreRun(table, queries.data(), codes.data(), run_len, 1e-3, &acc);
  const size_t iters = std::max<size_t>(1, 2'000'000 / run_len);
  WallTimer timer;
  for (size_t it = 0; it < iters; ++it) {
    acc = storage.BeginGeneration(id_range);
    ScoreRun(table, queries.data(), codes.data(), run_len, 1e-3, &acc);
  }
  const double seconds = timer.ElapsedSeconds();
  return seconds * 1e9 / static_cast<double>(iters * run_len);
}

// ------------------------------------------------------ walk benchmark

struct WalkCost {
  double recommend_ns = 0.0;
  double match_ns = 0.0;
  double qps = 0.0;
};

/// Times the walk over `model` — the snapshot's own ModelRef, or a copy
/// with dense_merge = false for the sparse sort-merge — and the descent
/// alone over `snapshot`.
WalkCost MeasureWalk(const CompactServingBase& snapshot,
                     const serving::ModelRef& model,
                     const std::vector<std::vector<QueryId>>& contexts,
                     double seconds) {
  SnapshotScratch scratch;
  size_t cursor = 0;
  uint64_t served = 0;
  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds) {
    for (size_t burst = 0; burst < 256; ++burst) {
      const Recommendation rec =
          RecommendFromModel(model, contexts[cursor], 5, &scratch);
      (void)rec;
      cursor = (cursor + 1) % contexts.size();
      ++served;
    }
  }
  WalkCost cost;
  const double total = timer.ElapsedSeconds();
  cost.recommend_ns = total * 1e9 / static_cast<double>(served);
  cost.qps = static_cast<double>(served) / total;

  // Descent-only probe over the same context stream: the walk minus the
  // scoring and ranking. The difference is the score+merge share.
  uint64_t matched = 0;
  cursor = 0;
  uint64_t probes = 0;
  WallTimer match_timer;
  while (match_timer.ElapsedSeconds() < seconds * 0.5) {
    for (size_t burst = 0; burst < 256; ++burst) {
      matched += snapshot.MatchedDepth(contexts[cursor]);
      cursor = (cursor + 1) % contexts.size();
      ++probes;
    }
  }
  cost.match_ns =
      match_timer.ElapsedSeconds() * 1e9 / static_cast<double>(probes);
  if (matched == 0) std::fprintf(stderr, "warning: no context matched\n");
  return cost;
}

// -------------------------------------------------- equivalence check

bool DenseMatchesSparseEverywhere(
    const CompactServingBase& snapshot,
    const std::vector<std::vector<QueryId>>& contexts) {
  SnapshotScratch scratch;
  std::vector<Recommendation> reference;
  reference.reserve(contexts.size());
  serving::ModelRef sparse = snapshot.model_ref();
  sparse.dense_merge = false;
  for (const std::vector<QueryId>& context : contexts) {
    reference.push_back(RecommendFromModel(sparse, context, 10, &scratch));
  }

  const auto same = [](const Recommendation& a, const Recommendation& b) {
    if (a.covered != b.covered || a.matched_length != b.matched_length ||
        a.queries.size() != b.queries.size()) {
      return false;
    }
    for (size_t i = 0; i < a.queries.size(); ++i) {
      if (a.queries[i].query != b.queries[i].query ||
          a.queries[i].score != b.queries[i].score) {
        return false;
      }
    }
    return true;
  };

  bool all_equal = true;
  for (const kernels::SimdLevel level : SupportedLevels()) {
    const kernels::SimdLevel previous = kernels::SetActiveLevel(level);
    size_t mismatches = 0;
    for (size_t i = 0; i < contexts.size(); ++i) {
      if (!same(reference[i],
                snapshot.Recommend(contexts[i], 10, &scratch))) {
        ++mismatches;
      }
    }
    kernels::SetActiveLevel(previous);
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE: %zu/%zu contexts diverged from the "
                   "sparse reference at level %s\n",
                   mismatches, contexts.size(),
                   kernels::SimdLevelName(level));
      all_equal = false;
    }
  }
  return all_equal;
}

void WriteJson(const std::vector<Row>& rows) {
  std::FILE* out = std::fopen("BENCH_hotpath.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_hotpath.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out, "  {\"name\": \"%s\"", r.name.c_str());
    if (!r.level.empty()) std::fprintf(out, ", \"level\": \"%s\"", r.level.c_str());
    if (!r.width.empty()) std::fprintf(out, ", \"width\": \"%s\"", r.width.c_str());
    if (!r.variant.empty()) {
      std::fprintf(out, ", \"variant\": \"%s\"", r.variant.c_str());
    }
    if (r.run_len != 0) std::fprintf(out, ", \"run_len\": %zu", r.run_len);
    if (r.ns_per_entry != 0.0) {
      std::fprintf(out, ", \"ns_per_entry\": %.4f", r.ns_per_entry);
    }
    if (r.recommend_ns != 0.0) {
      std::fprintf(out, ", \"recommend_ns\": %.1f, \"match_ns\": %.1f, "
                        "\"merge_score_ns\": %.1f, \"qps\": %.0f",
                   r.recommend_ns, r.match_ns, r.merge_score_ns, r.qps);
    }
    if (r.vectorized_over_scalar != 0.0) {
      std::fprintf(out, ", \"vectorized_over_scalar\": %.3f", r.vectorized_over_scalar);
    }
    if (r.dense_over_sparse != 0.0) {
      std::fprintf(out, ", \"dense_over_sparse\": %.3f", r.dense_over_sparse);
    }
    if (r.ok >= 0) std::fprintf(out, ", \"ok\": %d", r.ok);
    std::fprintf(out, "}%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_hotpath.json\n");
}

}  // namespace

int main() {
  Harness harness;
  sqp::bench::PrintBanner(
      harness,
      "compact-walk hot-path kernels (SIMD dispatch, dense accumulation)",
      "every dispatch level serves bit-identically; the vectorized dense "
      "walk beats the forced-scalar and legacy sparse paths");

  std::printf("dispatch: best=%s active=%s\n",
              kernels::SimdLevelName(kernels::BestSupportedLevel()),
              kernels::SimdLevelName(kernels::ActiveLevel()));

  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), options, 1);
  SQP_CHECK(built.ok());
  const auto compact = CompactSnapshot::FromSnapshot(*built.value());
  const std::vector<std::vector<QueryId>> contexts = Contexts(harness);
  SQP_CHECK(!contexts.empty());

  std::vector<Row> rows;

  // Correctness first: no timing is worth reporting off a wrong walk.
  const bool equivalent = DenseMatchesSparseEverywhere(*compact, contexts);
  {
    Row r;
    r.name = "hotpath_equivalence";
    r.ok = equivalent ? 1 : 0;
    rows.push_back(r);
  }
  std::printf("equivalence (dense vs sparse, all levels): %s\n\n",
              equivalent ? "ok" : "FAILED");

  // Phase 1: kernel microbenchmark per level x width x run length.
  for (const kernels::SimdLevel level : SupportedLevels()) {
    const kernels::KernelTable& table = kernels::KernelsFor(level);
    for (const size_t run_len : {size_t{8}, size_t{64}, size_t{512}}) {
      Row u16;
      u16.name = "kernel";
      u16.level = kernels::SimdLevelName(level);
      u16.width = "u16";
      u16.run_len = run_len;
      u16.ns_per_entry = MeasureKernelNs<uint16_t>(table, run_len, 11);
      rows.push_back(u16);
      Row u32 = u16;
      u32.width = "u32";
      u32.ns_per_entry = MeasureKernelNs<uint32_t>(table, run_len, 13);
      rows.push_back(u32);
      std::printf("kernel  %-6s run=%-4zu u16=%.3f ns/entry  u32=%.3f ns/entry\n",
                  u16.level.c_str(), run_len, u16.ns_per_entry,
                  u32.ns_per_entry);
    }
  }
  std::printf("\n");

  // Phase 2: the end-to-end walk per dispatch level, split into descent
  // (MatchedDepth) and score+merge.
  double scalar_ns = 0.0;
  double best_ns = 0.0;
  for (const kernels::SimdLevel level : SupportedLevels()) {
    const kernels::SimdLevel previous = kernels::SetActiveLevel(level);
    const WalkCost cost =
        MeasureWalk(*compact, compact->model_ref(), contexts,
                    /*seconds=*/0.6);
    kernels::SetActiveLevel(previous);
    Row r;
    r.name = "hotpath_walk";
    r.level = kernels::SimdLevelName(level);
    r.variant = "dense";
    r.recommend_ns = cost.recommend_ns;
    r.match_ns = cost.match_ns;
    r.merge_score_ns = std::max(0.0, cost.recommend_ns - cost.match_ns);
    r.qps = cost.qps;
    rows.push_back(r);
    std::printf("walk    %-6s recommend=%.0fns match=%.0fns score+merge=%.0fns "
                "qps=%.0f\n",
                r.level.c_str(), r.recommend_ns, r.match_ns, r.merge_score_ns,
                r.qps);
    if (level == kernels::SimdLevel::kScalar) scalar_ns = cost.recommend_ns;
    if (level == kernels::BestSupportedLevel()) best_ns = cost.recommend_ns;
  }

  // Phase 2b: the sparse sort-merge walk (a ModelRef copy with
  // dense_merge = false).
  serving::ModelRef sparse_model = compact->model_ref();
  sparse_model.dense_merge = false;
  const WalkCost sparse =
      MeasureWalk(*compact, sparse_model, contexts, /*seconds=*/0.6);
  {
    Row r;
    r.name = "hotpath_walk";
    r.level = "scalar";
    r.variant = "sparse";
    r.recommend_ns = sparse.recommend_ns;
    r.match_ns = sparse.match_ns;
    r.merge_score_ns = std::max(0.0, sparse.recommend_ns - sparse.match_ns);
    r.qps = sparse.qps;
    rows.push_back(r);
    std::printf("walk    sparse recommend=%.0fns match=%.0fns "
                "score+merge=%.0fns qps=%.0f\n",
                r.recommend_ns, r.match_ns, r.merge_score_ns, r.qps);
  }

  // Phase 3: self-reported speedups.
  {
    Row r;
    r.name = "hotpath_speedup";
    r.level = kernels::SimdLevelName(kernels::BestSupportedLevel());
    r.vectorized_over_scalar = best_ns > 0.0 ? scalar_ns / best_ns : 0.0;
    r.dense_over_sparse =
        best_ns > 0.0 ? sparse.recommend_ns / best_ns : 0.0;
    rows.push_back(r);
    std::printf("\nspeedup: vectorized(%s)/scalar = %.2fx, dense/sparse = "
                "%.2fx\n",
                r.level.c_str(), r.vectorized_over_scalar,
                r.dense_over_sparse);
  }

  WriteJson(rows);
  return equivalent ? 0 : 1;
}
