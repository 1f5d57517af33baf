#include "core/compact_snapshot.h"

#include <algorithm>
#include <limits>

#include "core/memory_accounting.h"
#include "core/serving_walk.h"
#include "util/flat_hash.h"

namespace sqp {

namespace {

/// Saturating narrowing for the per-node count headers. Counts beyond
/// 2^32 would need corpora far past the paper's scale; the clamp keeps the
/// layout sound rather than wrapping, at documented precision loss.
uint32_t SaturateU32(uint64_t value) {
  return value > std::numeric_limits<uint32_t>::max()
             ? std::numeric_limits<uint32_t>::max()
             : static_cast<uint32_t>(value);
}

/// Block shift of a node: smallest s with (max_count >> s) <= 65535.
uint8_t BlockShift(uint64_t max_count) {
  uint8_t shift = 0;
  while ((max_count >> shift) > 0xffff) ++shift;
  return shift;
}

/// Keep flags of every node's entries, flat: entry i of node `id`'s
/// `nexts` is kept iff flag[first[id] + i]. The root owns no slots.
struct KeepFlags {
  std::vector<uint32_t> first;  // num_nodes + 1 offsets
  std::vector<uint8_t> flag;
};

/// The kept entries of every node under the truncation policy:
///
///  (a) per-node top-K — `nexts` is sorted by descending count (ties by
///      ascending query), so the base slice is the node's own ranking
///      prefix;
///  (b) aggregate closure — the full model's *served* top-K list at the
///      node's exact context is pinned at every path level that carries
///      the query, so serving any context whose suffix matches the node
///      exactly reproduces the full top-K list verbatim (every pinned
///      candidate keeps all its per-level contributions, i.e. its exact
///      full-precision score);
///  (c) ancestor closure — a query kept in a node is also kept in every
///      ancestor (its counts nest, so it always appears there), so any
///      candidate kept at the deepest path level that lists it carries its
///      exact full-precision score. (A query can still be truncated from a
///      node *deeper* than the ones keeping it — contexts whose walk ends
///      there serve it with the deep contribution understated; (b) exists
///      to make that rare, and BENCH_memory.json tracks the residual
///      disagreement rate.)
///
/// The root keeps nothing: serving never reads the root's nexts (ranking
/// levels are non-root path nodes), so packing them would be dead weight.
///
/// Cost: (b) and (c) can only set a flag in a node that truncates
/// (`nexts.size() > top_k`); every other node keeps all its entries after
/// (a). So (b) packs `full` exactly once and serves one top-K walk per
/// node that has a truncating node on its root path, pinning its list
/// only at those truncating ancestors; (c) looks up only truncating
/// parents. Lookups go through one flat (node, query) -> entry table over
/// the truncating nodes' entries. Both passes are skipped entirely when no
/// node exceeds top_k. The result equals the unpruned policy's exactly
/// (tests/oracle/kept_entries.h is that reference).
KeepFlags KeptEntries(const ModelSnapshot& full, size_t top_k) {
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  const size_t n = nodes.size();
  KeepFlags keep;
  keep.first.assign(n + 1, 0);
  for (size_t id = 1; id < n; ++id) {
    keep.first[id + 1] =
        keep.first[id] + static_cast<uint32_t>(nodes[id].nexts.size());
  }
  keep.flag.assign(keep.first[n], 0);

  // (a), plus which nodes truncate and which have a truncating node on
  // their root path (one forward pass: node ids are parent-before-child).
  std::vector<uint8_t> truncates(n, 0);
  std::vector<uint8_t> truncating_path(n, 0);
  size_t truncated_entries = 0;
  for (size_t id = 1; id < n; ++id) {
    const size_t size = nodes[id].nexts.size();
    const size_t base = std::min(top_k, size);
    std::fill_n(keep.flag.begin() + keep.first[id], base, 1);
    truncates[id] = base < size;
    if (truncates[id]) truncated_entries += size;
    const int32_t parent = nodes[id].parent;
    truncating_path[id] =
        truncates[id] ||
        (parent > 0 && truncating_path[static_cast<size_t>(parent)]);
  }
  if (truncated_entries == 0) return keep;

  const auto key = [](size_t node, QueryId query) {
    return (static_cast<uint64_t>(node) << 32) | query;
  };
  FlatU64Map entry_of(truncated_entries);
  for (size_t id = 1; id < n; ++id) {
    if (!truncates[id]) continue;
    for (uint32_t i = 0; i < nodes[id].nexts.size(); ++i) {
      entry_of[key(id, nodes[id].nexts[i].query)] = i;
    }
  }
  // Flags `query` in truncating `node` if the node lists it.
  const auto pin = [&](size_t node, QueryId query) {
    if (const uint64_t* i = entry_of.Find(key(node, query))) {
      keep.flag[keep.first[node] + *i] = 1;
    }
  };

  // (b) aggregate closure. Above the last truncating ancestor every node
  // keeps everything, so the upward walk stops there.
  const std::shared_ptr<const CompactSnapshot> exact =
      CompactSnapshot::FromSnapshot(full, CompactOptions{.top_k = 0});
  SnapshotScratch scratch;
  scratch.Prepare(exact->ScratchHint());
  for (size_t id = 1; id < n; ++id) {
    if (!truncating_path[id]) continue;
    const Recommendation rec =
        exact->Recommend(nodes[id].context, top_k, &scratch);
    for (const ScoredQuery& sq : rec.queries) {
      for (size_t a = id; a > 0 && truncating_path[a];
           a = static_cast<size_t>(nodes[a].parent)) {
        if (truncates[a]) pin(a, sq.query);
      }
    }
  }
  // (c) ancestor closure, as a reverse sweep that sees every descendant
  // before its ancestor.
  for (size_t id = n; id-- > 1;) {
    const int32_t parent = nodes[id].parent;
    if (parent <= 0 || !truncates[static_cast<size_t>(parent)]) continue;
    for (uint32_t i = 0; i < nodes[id].nexts.size(); ++i) {
      if (keep.flag[keep.first[id] + i]) {
        pin(static_cast<size_t>(parent), nodes[id].nexts[i].query);
      }
    }
  }
  return keep;
}

}  // namespace

void CompactSnapshot::BindViews() {
  next_begin_ = own_next_begin_;
  child_begin_ = own_child_begin_;
  total_count_ = own_total_count_;
  start_count_ = own_start_count_;
  count_shift_ = own_count_shift_;
  mask16_ = own_mask16_;
  mask64_ = own_mask64_;
  next_code_ = own_next_code_;
  next_code32_ = own_next_code32_;
  narrow_view_ = NarrowPoolsView{narrow_.next_query, narrow_.edge_query,
                                 narrow_.edge_child,
                                 narrow_.root_child_by_query};
  wide_view_ = WidePoolsView{wide_.next_query, wide_.edge_query,
                             wide_.edge_child, wide_.root_child_by_query};
  FinalizeDerived();
}

std::shared_ptr<const CompactSnapshot> CompactSnapshot::FromSnapshot(
    const ModelSnapshot& full, const CompactOptions& options) {
  std::shared_ptr<CompactSnapshot> out(new CompactSnapshot());
  out->options_ = options;
  out->version_ = full.version();
  out->weighting_ = full.options().weighting;
  out->sigmas_ = full.sigmas();
  out->component_escape_.reserve(full.options().components.size());
  for (const VmmOptions& component : full.options().components) {
    out->component_escape_.push_back(component.default_escape);
  }

  const Pst& pst = *full.pst();
  const std::vector<Pst::Node>& nodes = pst.nodes();
  const size_t n = nodes.size();
  const bool narrow_masks = out->component_escape_.size() <= 16;

  // Adaptive id width: 16-bit pools whenever every query id and node id
  // fits (node 0, the root, is never a child, so it doubles as the root
  // index's absent sentinel).
  QueryId max_query = 0;
  for (const Pst::Node& node : nodes) {
    for (const NextQueryCount& nc : node.nexts) {
      max_query = std::max(max_query, nc.query);
    }
    if (!node.context.empty()) {
      max_query = std::max(max_query, node.context.front());
    }
  }
  out->is_narrow_ =
      n <= std::numeric_limits<uint16_t>::max() &&
      max_query < std::numeric_limits<uint16_t>::max();

  out->own_next_begin_.reserve(n + 1);
  out->own_child_begin_.reserve(n + 1);
  out->own_total_count_.reserve(n);
  out->own_start_count_.reserve(n);
  out->own_count_shift_.reserve(n);
  if (narrow_masks) {
    out->own_mask16_.reserve(n);
  } else {
    out->own_mask64_.reserve(n);
  }

  // Exact packing keeps every entry and never shifts a count: the codes
  // are u16 while every packed count fits (the byte-identical version-1
  // layout) and u32 beyond that. The root's nexts are never packed, so
  // they do not count.
  const bool exact = options.top_k == 0;
  uint64_t max_count = 0;
  for (size_t id = 1; id < n; ++id) {
    if (!nodes[id].nexts.empty()) {
      max_count = std::max(max_count, nodes[id].nexts[0].count);
    }
  }
  const bool wide_codes = exact && max_count > 0xffff;
  const KeepFlags keep = exact ? KeepFlags{} : KeptEntries(full, options.top_k);

  const auto push_entry = [&](QueryId query, uint64_t code) {
    if (out->is_narrow_) {
      out->narrow_.next_query.push_back(static_cast<uint16_t>(query));
    } else {
      out->wide_.next_query.push_back(query);
    }
    if (wide_codes) {
      out->own_next_code32_.push_back(SaturateU32(code));
    } else {
      out->own_next_code_.push_back(static_cast<uint16_t>(code));
    }
  };
  const auto num_entries = [&] {
    return static_cast<uint32_t>(out->own_next_code_.size() +
                                 out->own_next_code32_.size());
  };
  const auto push_edge = [&](QueryId query, int32_t child) {
    if (out->is_narrow_) {
      out->narrow_.edge_query.push_back(static_cast<uint16_t>(query));
      out->narrow_.edge_child.push_back(static_cast<uint16_t>(child));
    } else {
      out->wide_.edge_query.push_back(query);
      out->wide_.edge_child.push_back(static_cast<uint32_t>(child));
    }
  };

  for (size_t id = 0; id < n; ++id) {
    const Pst::Node& node = nodes[id];
    out->own_next_begin_.push_back(num_entries());
    out->own_child_begin_.push_back(static_cast<uint32_t>(
        out->is_narrow_ ? out->narrow_.edge_query.size()
                        : out->wide_.edge_query.size()));
    out->own_total_count_.push_back(SaturateU32(node.total_count));
    out->own_start_count_.push_back(SaturateU32(node.start_count));
    const Pst::ViewMask mask = pst.mask_of(static_cast<int32_t>(id));
    if (narrow_masks) {
      out->own_mask16_.push_back(static_cast<uint16_t>(mask));
    } else {
      out->own_mask64_.push_back(mask);
    }

    // Ancestor-closed top-K truncation (see KeptEntries) over the
    // descending-sorted count list. Block-scaled quantization: whenever the
    // node's largest count fits 16 bits the shift is 0 and every code IS
    // the exact count — dequantized serving arithmetic is then
    // bit-identical to the full tree. Shifted nodes keep the ranking
    // (>> is monotone) and clamp sub-resolution counts to one code step so
    // observed continuations never quantize to probability zero. Exact
    // packing never shifts (its u16 codes fit by construction).
    const uint8_t shift =
        exact || node.nexts.empty() ? 0 : BlockShift(node.nexts[0].count);
    out->own_count_shift_.push_back(shift);
    // The root's nexts are never packed (see KeptEntries).
    for (uint32_t i = 0; id > 0 && i < node.nexts.size(); ++i) {
      if (!exact && !keep.flag[keep.first[id] + i]) continue;
      const uint64_t code = node.nexts[i].count >> shift;
      push_entry(node.nexts[i].query, code == 0 ? 1 : code);
    }

    for (const Pst::Edge& edge : node.children) {
      push_edge(edge.query, edge.child);
    }
  }
  out->own_next_begin_.push_back(num_entries());
  out->own_child_begin_.push_back(static_cast<uint32_t>(
      out->is_narrow_ ? out->narrow_.edge_query.size()
                      : out->wide_.edge_query.size()));

  // Dense root fan-out, as in the full tree (absent = node 0).
  const auto build_root_index = [&](auto& pools) {
    const uint32_t root_edges = out->own_child_begin_[1];
    if (root_edges == 0) return;
    const QueryId max_root_query = pools.edge_query[root_edges - 1];
    pools.root_child_by_query.assign(static_cast<size_t>(max_root_query) + 1,
                                     0);
    for (uint32_t e = 0; e < root_edges; ++e) {
      pools.root_child_by_query[pools.edge_query[e]] = pools.edge_child[e];
    }
  };
  if (out->is_narrow_) {
    build_root_index(out->narrow_);
  } else {
    build_root_index(out->wide_);
  }

  const auto shrink = [](auto& pools) {
    pools.next_query.shrink_to_fit();
    pools.edge_query.shrink_to_fit();
    pools.edge_child.shrink_to_fit();
  };
  shrink(out->narrow_);
  shrink(out->wide_);
  out->own_next_code_.shrink_to_fit();
  out->own_next_code32_.shrink_to_fit();
  out->BindViews();
  return out;
}

void CompactServingBase::FinalizeDerived() {
  // Bind the runtime-free walk layer's view of this model. The spans stay
  // the owning truth (vectors or mapped blob); the ModelRef is raw
  // pointers into exactly that storage.
  serving::ModelRef m;
  m.next_begin = next_begin_.data();
  m.child_begin = child_begin_.data();
  m.total_count = total_count_.data();
  m.start_count = start_count_.data();
  m.count_shift = count_shift_.data();
  m.mask16 = mask16_.empty() ? nullptr : mask16_.data();
  m.mask64 = mask64_.empty() ? nullptr : mask64_.data();
  if (next_code32_.empty()) {
    m.next_code = next_code_.data();
  } else {
    m.next_code32 = next_code32_.data();
  }
  m.num_nodes = total_count_.size();
  m.num_entries = num_entries();
  m.num_edges = is_narrow_ ? narrow_view_.edge_query.size()
                           : wide_view_.edge_query.size();
  m.narrow_ids = is_narrow_;
  m.narrow = serving::PoolsRef<uint16_t, uint16_t>{
      narrow_view_.next_query.data(), narrow_view_.edge_query.data(),
      narrow_view_.edge_child.data(), narrow_view_.root_child_by_query.data(),
      narrow_view_.root_child_by_query.size()};
  m.wide = serving::PoolsRef<uint32_t, uint32_t>{
      wide_view_.next_query.data(), wide_view_.edge_query.data(),
      wide_view_.edge_child.data(), wide_view_.root_child_by_query.data(),
      wide_view_.root_child_by_query.size()};
  m.weighting = weighting_;
  m.sigmas = sigmas_.data();
  m.component_escape = component_escape_.data();
  m.num_components = component_escape_.size();

  // Derived block: escape power tables (owned here, referenced by the
  // ModelRef), dense-accumulator bound, scratch sizing. Safe to run before
  // a blob's structural validation — the parse layer has already pinned
  // every section's element count to the META totals, and the depth sweep
  // is defensive against non-monotone offsets.
  escape_pow_.assign(m.num_components * (serving::kEscapePowCap + 1), 1.0);
  std::vector<uint32_t> depth_scratch(m.num_nodes, 0);
  serving::FinalizeModelRef(&m, escape_pow_.data(),
                            depth_scratch.empty() ? nullptr
                                                  : depth_scratch.data());
  model_ = m;
}

size_t CompactServingBase::MatchedDepth(
    std::span<const QueryId> context) const {
  const size_t path_cap = std::min(
      context.size(), std::max<size_t>(model_.sizing.path_depth, 64));
  std::vector<int32_t> path(path_cap);
  return serving::MatchPath(model_, context.data(), context.size(),
                            path.data(), path.size());
}

ScratchSizing CompactServingBase::ScratchHint() const {
  return model_.sizing;
}

Recommendation RecommendFromModel(const serving::ModelRef& m,
                                  std::span<const QueryId> context,
                                  size_t top_n, SnapshotScratch* scratch) {
  Recommendation rec;
  if (context.empty()) return rec;

  // Per-request capacity top-up off the bind-time sizing — all no-ops in
  // steady state once Prepare() warmed the scratch. The path capacity
  // floor covers adversarial mapped blobs whose depth sweep under-reports
  // (cyclic CSR graphs); every well-formed model fits sizing.path_depth.
  const size_t path_cap = std::min(
      context.size(), std::max<size_t>(m.sizing.path_depth, 64));
  if (scratch->path.size() < path_cap) scratch->path.resize(path_cap);
  if (scratch->level_weight.size() < path_cap) {
    scratch->level_weight.resize(path_cap);
  }
  const size_t k = m.num_components;
  if (scratch->matched.size() < k) scratch->matched.resize(k);
  if (scratch->weights.size() < k) scratch->weights.resize(k);
  if (scratch->topn_query.size() < top_n) scratch->topn_query.resize(top_n);
  if (scratch->topn_score.size() < top_n) scratch->topn_score.resize(top_n);

  serving::WalkScratch ws;
  ws.path = scratch->path.data();
  ws.path_capacity = path_cap;
  ws.matched = scratch->matched.data();
  ws.weights = scratch->weights.data();
  ws.level_weight = scratch->level_weight.data();

  serving::DenseAccumulator acc;
  if (m.dense_merge) {
    acc = scratch->acc.BeginGeneration(m.sizing.dense_queries);
    ws.acc = &acc;
  } else {
    // The sparse sort-merge path can surface every packed entry at once;
    // num_entries is a true bound (path nodes are distinct in a tree).
    if (scratch->walk_raw.size() < m.num_entries) {
      scratch->walk_raw.resize(m.num_entries);
    }
    ws.raw = scratch->walk_raw.data();
    ws.raw_capacity = scratch->walk_raw.size();
  }

  const serving::WalkResult result = serving::RecommendTopN(
      m, context.data(), context.size(), top_n, kernels::ActiveKernels(),
      &ws, scratch->topn_query.data(), scratch->topn_score.data());
  if (!result.covered) return rec;
  rec.covered = true;
  rec.matched_length = result.matched_length;
  rec.queries.resize(result.count);
  for (size_t i = 0; i < result.count; ++i) {
    rec.queries[i] = ScoredQuery{static_cast<QueryId>(scratch->topn_query[i]),
                                 scratch->topn_score[i]};
  }
  return rec;
}

Recommendation CompactServingBase::Recommend(std::span<const QueryId> context,
                                             size_t top_n,
                                             SnapshotScratch* scratch) const {
  return RecommendFromModel(model_, context, top_n, scratch);
}

bool CompactServingBase::Covers(std::span<const QueryId> context) const {
  return serving::Covers(model_, context.data(), context.size());
}

uint64_t CompactServingBase::ServingBytes() const {
  return next_begin_.size_bytes() + child_begin_.size_bytes() +
         total_count_.size_bytes() + start_count_.size_bytes() +
         count_shift_.size_bytes() + mask16_.size_bytes() +
         mask64_.size_bytes() + next_code_.size_bytes() +
         next_code32_.size_bytes() +
         narrow_view_.flat_bytes() + wide_view_.flat_bytes() +
         FlatBytes(sigmas_) + FlatBytes(component_escape_);
}

ModelStats CompactSnapshot::Stats() const {
  ModelStats stats;
  stats.name = "MVMM (compact)";
  stats.num_states = num_nodes();
  stats.num_entries = num_entries();
  stats.memory_bytes = ServingBytes();
  return stats;
}

}  // namespace sqp
