#include "oracle/pst_walk.h"

#include <algorithm>

#include "core/serving_walk.h"
#include "core/vmm_model.h"

namespace sqp::oracle {

void MergeAndRank(std::vector<ScoredQuery>* raw, size_t top_n,
                  Recommendation* rec) {
  // Stable, so a query's contributions are summed in push order (the walk
  // pushes level-major) — the same order the dense accumulator sums in.
  std::stable_sort(raw->begin(), raw->end(),
                   [](const ScoredQuery& a, const ScoredQuery& b) {
                     return a.query < b.query;
                   });
  size_t out = 0;
  for (size_t i = 0; i < raw->size();) {
    ScoredQuery merged = (*raw)[i];
    for (++i; i < raw->size() && (*raw)[i].query == merged.query; ++i) {
      merged.score += (*raw)[i].score;
    }
    (*raw)[out++] = merged;
  }
  raw->resize(out);
  const auto by_rank = [](const ScoredQuery& a, const ScoredQuery& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.query < b.query;
  };
  if (raw->size() > top_n) {
    std::nth_element(raw->begin(),
                     raw->begin() + static_cast<ptrdiff_t>(top_n),
                     raw->end(), by_rank);
    raw->resize(top_n);
  }
  std::sort(raw->begin(), raw->end(), by_rank);
  rec->queries.assign(raw->begin(), raw->end());
}

Recommendation Recommend(const ModelSnapshot& model,
                         std::span<const QueryId> context, size_t top_n) {
  Recommendation rec;
  if (context.empty()) return rec;

  const size_t k = model.num_components();
  std::vector<int32_t> path;
  std::vector<size_t> matched;
  const size_t depth =
      internal::SharedMatchDepths(*model.pst(), k, context, &path, &matched);
  if (depth == 0) return rec;  // uncovered, like its components
  std::vector<double> weights(k);
  serving::ComputeWeights(model.options().weighting, model.sigmas().data(),
                          k, context.size(), matched.data(), weights.data());
  serving::NormalizeWeights(weights.data(), k);

  // Combine escape-weighted generative scores across components: each
  // component contributes its matched state plus that state's suffix
  // ancestors at escape-discounted weight (Eq. 5 applied to ranking). All
  // matched states are nested suffixes of the context, so the per-level
  // weights accumulate on one path.
  const std::vector<Pst::Node>& nodes = model.pst()->nodes();
  std::vector<double> level_weight(depth, 0.0);
  for (size_t c = 0; c < k; ++c) {
    if (weights[c] <= 0.0 || matched[c] == 0) continue;
    const Pst::Node& state = nodes[static_cast<size_t>(path[matched[c] - 1])];
    const size_t dropped = context.size() - matched[c];
    const double esc = model.options().components[c].default_escape;
    double lw = weights[c] * (dropped == 0 ? 1.0
                                           : internal::EscapeMass(
                                                 state, dropped, esc));
    for (size_t d = matched[c]; d >= 1; --d) {
      level_weight[d - 1] += lw;
      lw *= esc;
    }
  }
  std::vector<ScoredQuery> raw;
  for (size_t d = 0; d < depth; ++d) {
    if (level_weight[d] <= 0.0) continue;
    const Pst::Node& node = nodes[static_cast<size_t>(path[d])];
    if (node.total_count == 0) continue;
    const double scale =
        level_weight[d] / static_cast<double>(node.total_count);
    for (const NextQueryCount& nc : node.nexts) {
      raw.push_back(
          ScoredQuery{nc.query, scale * static_cast<double>(nc.count)});
    }
  }
  if (raw.empty()) return rec;

  rec.covered = true;
  rec.matched_length = depth;
  MergeAndRank(&raw, top_n, &rec);
  return rec;
}

bool Covers(const ModelSnapshot& model, std::span<const QueryId> context) {
  if (context.empty()) return false;
  size_t matched = 0;
  model.pst()->MatchLongestSuffix(context, &matched);
  return matched >= 1;
}

}  // namespace sqp::oracle
