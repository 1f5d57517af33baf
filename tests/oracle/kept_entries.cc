#include "oracle/kept_entries.h"

#include <algorithm>
#include <unordered_map>

#include "core/compact_snapshot.h"

namespace sqp::oracle {

std::vector<std::vector<uint32_t>> KeptEntries(const ModelSnapshot& full,
                                               size_t top_k) {
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  const size_t n = nodes.size();
  std::vector<std::vector<uint8_t>> flag(n);
  bool any_truncated = false;
  for (size_t id = 1; id < n; ++id) {
    flag[id].assign(nodes[id].nexts.size(), 0);
    const size_t base = std::min(top_k, nodes[id].nexts.size());
    std::fill(flag[id].begin(), flag[id].begin() + base, 1);
    any_truncated |= base < nodes[id].nexts.size();
  }

  // Lazily-built (query -> entry index) maps, shared by passes (b)/(c).
  std::vector<std::unordered_map<QueryId, uint32_t>> index_of(n);
  const auto entry_index = [&](size_t node, QueryId query) -> int64_t {
    std::unordered_map<QueryId, uint32_t>& map = index_of[node];
    if (map.empty() && !nodes[node].nexts.empty()) {
      map.reserve(nodes[node].nexts.size());
      for (uint32_t i = 0; i < nodes[node].nexts.size(); ++i) {
        map.emplace(nodes[node].nexts[i].query, i);
      }
    }
    const auto it = map.find(query);
    return it == map.end() ? -1 : static_cast<int64_t>(it->second);
  };

  // (b) aggregate closure: every node's served top-K list, pinned at every
  // path level; (c) ancestor closure, as a reverse sweep that sees every
  // descendant before its ancestor (node ids are parent-before-child).
  if (any_truncated) {
    const std::shared_ptr<const CompactSnapshot> exact =
        CompactSnapshot::FromSnapshot(full, CompactOptions{.top_k = 0});
    SnapshotScratch scratch;
    scratch.Prepare(exact->ScratchHint());
    for (size_t id = 1; id < n; ++id) {
      const Recommendation rec =
          exact->Recommend(nodes[id].context, top_k, &scratch);
      for (const ScoredQuery& sq : rec.queries) {
        for (int32_t a = static_cast<int32_t>(id); a > 0;
             a = nodes[static_cast<size_t>(a)].parent) {
          const int64_t i = entry_index(static_cast<size_t>(a), sq.query);
          if (i >= 0) {
            flag[static_cast<size_t>(a)][static_cast<size_t>(i)] = 1;
          }
        }
      }
    }
    for (size_t id = n; id-- > 1;) {
      const int32_t parent = nodes[id].parent;
      if (parent <= 0) continue;
      for (uint32_t i = 0; i < flag[id].size(); ++i) {
        if (!flag[id][i]) continue;
        const int64_t j = entry_index(static_cast<size_t>(parent),
                                      nodes[id].nexts[i].query);
        if (j >= 0) {
          flag[static_cast<size_t>(parent)][static_cast<size_t>(j)] = 1;
        }
      }
    }
  }

  std::vector<std::vector<uint32_t>> kept(n);
  for (size_t id = 1; id < n; ++id) {
    for (uint32_t i = 0; i < flag[id].size(); ++i) {
      if (flag[id][i]) kept[id].push_back(i);
    }
  }
  return kept;
}

}  // namespace sqp::oracle
