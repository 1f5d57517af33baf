// Table VII: memory footprint of every method. The paper: MVMM costs only
// marginally more than a single VMM thanks to the merged PST (nodes shared
// across components with a small per-component tag); VMM-family models cost
// about twice the pair-wise/N-gram models.
//
// Beyond the paper's table, this binary is the repo's tracked memory
// surface: it additionally packs the trained MVMM snapshot into the
// CompactSnapshot serving layout (CSR arrays + ancestor-closed top-K +
// 16-bit quantized counts) at several K, verifies the served top-10 lists
// against the full model over the ground-truth contexts, and emits
// BENCH_memory.json — bytes, bytes/state and bytes/entry per model plus
// the full-vs-compact compression ratio and top-10 agreement rate, for
// cross-PR trend tracking (see bench/README.md).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "eval/table_printer.h"
#include "harness.h"

namespace {

using namespace sqp;
using namespace sqp::bench;

struct MemoryRow {
  std::string name;
  uint64_t memory_bytes = 0;
  uint64_t num_states = 0;
  uint64_t num_entries = 0;
  size_t top_k = 0;               // compact rows only
  double compression_ratio = 0.0; // vs the full MVMM snapshot
  double top10_agreement = -1.0;  // fraction of contexts with identical top-10
};

MemoryRow RowFromStats(const ModelStats& stats) {
  MemoryRow row;
  row.name = stats.name;
  row.memory_bytes = stats.memory_bytes;
  row.num_states = stats.num_states;
  row.num_entries = stats.num_entries;
  return row;
}

double BytesPer(uint64_t bytes, uint64_t denom) {
  return denom == 0 ? 0.0 : static_cast<double>(bytes) /
                                static_cast<double>(denom);
}

/// Fraction of contexts whose top-10 recommendation list (query ids, in
/// order) is identical between the exact packing (which serves the full
/// model's own answers) and the compact snapshot.
double Top10Agreement(const CompactSnapshot& exact,
                      const CompactSnapshot& compact,
                      const std::vector<std::vector<QueryId>>& contexts) {
  SnapshotScratch scratch;
  size_t same = 0;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation a = exact.Recommend(context, 10, &scratch);
    const Recommendation b = compact.Recommend(context, 10, &scratch);
    bool equal = a.queries.size() == b.queries.size();
    for (size_t i = 0; equal && i < a.queries.size(); ++i) {
      equal = a.queries[i].query == b.queries[i].query;
    }
    same += equal ? 1 : 0;
  }
  return contexts.empty() ? 1.0
                          : static_cast<double>(same) /
                                static_cast<double>(contexts.size());
}

void WriteJson(const std::vector<MemoryRow>& rows) {
  std::FILE* out = std::fopen("BENCH_memory.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_memory.json\n");
    return;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MemoryRow& r = rows[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"memory_bytes\": %llu, "
                 "\"states\": %llu, \"entries\": %llu, "
                 "\"bytes_per_state\": %.2f, \"bytes_per_entry\": %.2f",
                 r.name.c_str(),
                 static_cast<unsigned long long>(r.memory_bytes),
                 static_cast<unsigned long long>(r.num_states),
                 static_cast<unsigned long long>(r.num_entries),
                 BytesPer(r.memory_bytes, r.num_states),
                 BytesPer(r.memory_bytes, r.num_entries));
    if (r.top_k != 0) {
      std::fprintf(out,
                   ", \"top_k\": %zu, \"compression_ratio\": %.2f, "
                   "\"top10_agreement\": %.4f",
                   r.top_k, r.compression_ratio, r.top10_agreement);
    }
    std::fprintf(out, "}%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("JSON results written to BENCH_memory.json\n");
}

}  // namespace

int main() {
  Harness harness;
  PrintBanner(harness, "Table VII: memory footprint for all methods",
              "MVMM marginally above a single VMM (merged PST); VMM family "
              "heavier than pair-wise / N-gram; compact serving snapshot "
              ">= 4x below the full MVMM");

  std::vector<MemoryRow> rows;
  TablePrinter table({"model", "memory (MB)", "states", "count entries"});
  for (PredictionModel* model : harness.AllMethods()) {
    const ModelStats stats = model->Stats();
    table.AddRow({stats.name,
                  FormatDouble(static_cast<double>(stats.memory_bytes) /
                                   1048576.0, 2),
                  std::to_string(stats.num_states),
                  std::to_string(stats.num_entries)});
    rows.push_back(RowFromStats(stats));
  }
  table.Print(std::cout);

  const uint64_t mvmm_nodes = harness.Mvmm()->Stats().num_states;
  const uint64_t vmm0_nodes = harness.Vmm(0.0)->Stats().num_states;
  std::cout << "\nMerged-PST check (paper Section V-F.2): MVMM nodes ("
            << mvmm_nodes << ") == full VMM(0.0) nodes (" << vmm0_nodes
            << "): " << (mvmm_nodes == vmm0_nodes ? "yes" : "no") << "\n";

  // The serving pair: the full ModelSnapshot (Table VII accounting of the
  // trained tree) and its CompactSnapshot re-packs at several top-K
  // settings, scored against the exact packing the engine publishes.
  MvmmOptions options;
  options.default_max_depth = harness.config().vmm_max_depth;
  auto built = ModelSnapshot::Build(harness.training_data(), options, 1);
  SQP_CHECK(built.ok());
  const std::shared_ptr<const ModelSnapshot> full = built.value();
  const ModelStats full_stats = full->Stats();
  {
    MemoryRow row = RowFromStats(full_stats);
    row.name = "MVMM snapshot (full)";
    rows.push_back(row);
  }

  std::vector<std::vector<QueryId>> contexts;
  for (const auto& entry : harness.truth()) {
    if (entry.context.size() <= 5) contexts.push_back(entry.context);
    if (contexts.size() >= 4096) break;
  }

  std::printf("\nCompact serving snapshot vs full (%llu bytes):\n",
              static_cast<unsigned long long>(full_stats.memory_bytes));
  const std::shared_ptr<const CompactSnapshot> exact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});
  for (const size_t top_k : {size_t{10}, size_t{16}, size_t{32}}) {
    const auto compact =
        CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = top_k});
    MemoryRow row = RowFromStats(compact->Stats());
    row.name = "MVMM snapshot (compact K=" + std::to_string(top_k) + ")";
    row.top_k = top_k;
    row.compression_ratio =
        BytesPer(full_stats.memory_bytes, row.memory_bytes);
    row.top10_agreement = Top10Agreement(*exact, *compact, contexts);
    std::printf(
        "  K=%-3zu %8llu bytes  ratio %.2fx  top-10 agreement %.4f "
        "(%zu contexts)\n",
        top_k, static_cast<unsigned long long>(row.memory_bytes),
        row.compression_ratio, row.top10_agreement, contexts.size());
    rows.push_back(row);
  }

  WriteJson(rows);
  return 0;
}
