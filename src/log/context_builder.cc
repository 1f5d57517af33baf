#include "log/context_builder.h"

#include <algorithm>
#include <thread>

#include "util/edge_search.h"
#include "util/status.h"

namespace sqp {
namespace {

/// Sorts next-query counts by descending count, ascending id.
void SortNexts(std::vector<NextQueryCount>* nexts) {
  std::sort(nexts->begin(), nexts->end(),
            [](const NextQueryCount& a, const NextQueryCount& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.query < b.query;
            });
}

uint64_t PackKey(int32_t node, QueryId query) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 32) | query;
}

/// The single counting pass shared by the main-trie and per-shard counters.
/// `descend(node, q)` walks/creates the child edge, `count(node, next, f)`
/// accumulates a weighted continuation, `start(node, f)` a session-start
/// occurrence.
template <typename DescendFn, typename CountFn, typename StartFn>
void CountPass(std::span<const AggregatedSession> sessions,
               ContextIndex::Mode mode, size_t max_context_length,
               DescendFn&& descend, CountFn&& count, StartFn&& start) {
  for (const AggregatedSession& session : sessions) {
    const std::vector<QueryId>& q = session.queries;
    if (q.size() < 2) continue;  // no prediction evidence
    // `end` indexes the predicted query; the context is q[start..end).
    for (size_t end = 1; end < q.size(); ++end) {
      const size_t max_len =
          max_context_length == 0 ? end : std::min(end, max_context_length);
      if (mode == ContextIndex::Mode::kPrefix) {
        // Only the full prefix [0, end), walked newest query first.
        if (max_context_length != 0 && end > max_context_length) continue;
        int32_t node = 0;
        for (size_t back = 0; back < end; ++back) {
          node = descend(node, q[end - 1 - back]);
        }
        count(node, q[end], session.frequency);
        start(node, session.frequency);  // prefixes start the session
      } else {
        // Each extra length extends the previous walk by one older query,
        // so every substring occurrence costs exactly one trie step.
        int32_t node = 0;
        for (size_t len = 1; len <= max_len; ++len) {
          node = descend(node, q[end - len]);
          count(node, q[end], session.frequency);
          if (end == len) start(node, session.frequency);
        }
      }
    }
  }
}

}  // namespace

int32_t ContextIndex::DescendIn(std::vector<TrieNode>* trie,
                                FlatU64Map* children, int32_t from,
                                QueryId q) {
  uint64_t& slot = (*children)[PackKey(from, q)];
  if (slot == 0) {  // node 0 is the root and never a child: 0 = absent
    TrieNode node;
    node.parent = from;
    node.edge = q;
    node.depth = (*trie)[static_cast<size_t>(from)].depth + 1;
    slot = trie->size();
    trie->push_back(node);
  }
  return static_cast<int32_t>(slot);
}

void ContextIndex::CountSessions(std::span<const AggregatedSession> sessions) {
  CountPass(
      sessions, mode_, max_context_length_,
      [this](int32_t node, QueryId q) { return Descend(node, q); },
      [this](int32_t node, QueryId next, uint64_t frequency) {
        counts_[PackKey(node, next)] += frequency;
      },
      [this](int32_t node, uint64_t frequency) {
        trie_[static_cast<size_t>(node)].start_count += frequency;
      });
}

void ContextIndex::CountSessionsSharded(
    const std::vector<AggregatedSession>& sessions, size_t num_workers) {
  const size_t workers =
      std::max<size_t>(1, std::min(num_workers, sessions.size()));
  std::vector<CountShard> shards(workers);
  const size_t block = (sessions.size() + workers - 1) / workers;
  const auto count_shard = [&](size_t w) {
    CountShard& shard = shards[w];
    shard.trie.emplace_back();  // local root
    const size_t begin = w * block;
    const size_t end = std::min(sessions.size(), begin + block);
    const auto descend = [&shard](int32_t from, QueryId q) {
      return DescendIn(&shard.trie, &shard.children, from, q);
    };
    CountPass(
        std::span<const AggregatedSession>(sessions.data() + begin,
                                           end - begin),
        mode_, max_context_length_, descend,
        [&shard](int32_t node, QueryId next, uint64_t frequency) {
          shard.counts[PackKey(node, next)] += frequency;
        },
        [&shard](int32_t node, uint64_t frequency) {
          shard.trie[static_cast<size_t>(node)].start_count += frequency;
        });
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back(count_shard, w);
  }
  count_shard(0);
  for (std::thread& thread : threads) thread.join();
  // Sequential merge in worker order: addition is associative and
  // commutative, so the merged counts equal the single-threaded pass no
  // matter how the sessions were sharded.
  for (const CountShard& shard : shards) MergeShard(shard);
}

void ContextIndex::MergeShard(const CountShard& shard) {
  std::vector<int32_t> to_global(shard.trie.size(), -1);
  to_global[0] = 0;
  trie_[0].start_count += shard.trie[0].start_count;
  for (size_t i = 1; i < shard.trie.size(); ++i) {
    // Local parents precede their children (insertion order), so the
    // parent's global id is already known.
    const TrieNode& local = shard.trie[i];
    const int32_t global =
        Descend(to_global[static_cast<size_t>(local.parent)], local.edge);
    trie_[static_cast<size_t>(global)].start_count += local.start_count;
    to_global[i] = global;
  }
  shard.counts.ForEach([&](uint64_t key, uint64_t count) {
    const int32_t node = to_global[static_cast<size_t>(key >> 32)];
    counts_[PackKey(node, static_cast<QueryId>(key))] += count;
  });
}

void ContextIndex::Build(const std::vector<AggregatedSession>& sessions,
                         Mode mode, size_t max_context_length,
                         size_t num_workers) {
  trie_.clear();
  edges_.clear();
  entries_.clear();
  entry_nodes_.clear();
  children_.Reset();
  counts_.Reset();
  mode_ = mode;
  max_context_length_ = max_context_length;
  total_occurrences_ = 0;

  trie_.emplace_back();  // root: empty context

  if (num_workers > 1 && sessions.size() > 1) {
    CountSessionsSharded(sessions, num_workers);
  } else {
    CountSessions(sessions);
  }
  Finalize();
  built_ = true;
}

void ContextIndex::Append(const std::vector<AggregatedSession>& sessions,
                          size_t num_workers) {
  SQP_CHECK(built_);  // Append extends an existing Build
  if (sessions.empty()) return;
  if (num_workers > 1 && sessions.size() > 1) {
    CountSessionsSharded(sessions, num_workers);
  } else {
    CountSessions(sessions);
  }
  Finalize();
}

void ContextIndex::Finalize() {
  entries_.clear();
  entry_nodes_.clear();
  edges_.clear();
  total_occurrences_ = 0;
  const size_t num_nodes = trie_.size();
  uint32_t max_depth = 0;
  for (TrieNode& node : trie_) {
    node.entry = -1;
    node.edges_begin = 0;
    node.edges_end = 0;
    max_depth = std::max(max_depth, node.depth);
  }

  // Canonical (length, lexicographic) order of every trie node, fixed once
  // at build time. A node's context is its own edge (the oldest query)
  // followed by its parent's context, so among the nodes of depth L the
  // order is that of the integer keys (edge, rank of the parent among the
  // nodes of depth L-1): one key sort per depth, shallowest first.
  // Contexts are unique, so the order (and with it every downstream
  // structure, e.g. a PST built from the sorted entries) is independent of
  // trie node numbering — and therefore of the counting worker count.
  std::vector<uint32_t> depth_begin(max_depth + 2, 0);
  for (const TrieNode& node : trie_) ++depth_begin[node.depth + 1];
  for (size_t d = 1; d < depth_begin.size(); ++d) {
    depth_begin[d] += depth_begin[d - 1];
  }
  std::vector<int32_t> order(num_nodes);  // by (depth, context)
  {
    std::vector<uint32_t> cursor(depth_begin.begin(), depth_begin.end() - 1);
    for (size_t i = 0; i < num_nodes; ++i) {
      order[cursor[trie_[i].depth]++] = static_cast<int32_t>(i);
    }
  }
  std::vector<uint32_t> rank(num_nodes, 0);  // position among its depth
  struct KeyedNode {
    uint64_t key;
    int32_t node;
  };
  std::vector<KeyedNode> keyed;
  for (uint32_t depth = 1; depth <= max_depth; ++depth) {
    const uint32_t begin = depth_begin[depth];
    const uint32_t end = depth_begin[depth + 1];
    keyed.clear();
    for (uint32_t i = begin; i < end; ++i) {
      const TrieNode& node = trie_[static_cast<size_t>(order[i])];
      keyed.push_back(KeyedNode{
          (static_cast<uint64_t>(node.edge) << 32) |
              rank[static_cast<size_t>(node.parent)],
          order[i]});
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedNode& a, const KeyedNode& b) {
                return a.key < b.key;
              });
    for (uint32_t j = 0; j < keyed.size(); ++j) {
      order[begin + j] = keyed[j].node;
      rank[static_cast<size_t>(keyed[j].node)] = j;
    }
  }

  // Group the count table by node (counting pass; SortNexts below fixes
  // the order within a node).
  std::vector<uint32_t> next_begin(num_nodes + 1, 0);
  counts_.ForEach([&](uint64_t key, uint64_t) {
    ++next_begin[static_cast<size_t>(key >> 32) + 1];
  });
  size_t counted_nodes = 0;
  for (size_t i = 1; i <= num_nodes; ++i) {
    counted_nodes += next_begin[i] > 0;
    next_begin[i] += next_begin[i - 1];
  }
  std::vector<NextQueryCount> nexts(counts_.size());
  {
    std::vector<uint32_t> cursor(next_begin.begin(), next_begin.end() - 1);
    counts_.ForEach([&](uint64_t key, uint64_t count) {
      nexts[cursor[static_cast<size_t>(key >> 32)]++] =
          NextQueryCount{static_cast<QueryId>(key), count};
    });
  }

  // One ContextEntry per counted node, emitted in canonical order. Walking
  // node -> root collects edge labels oldest-first, which is the context
  // orientation.
  entries_.reserve(counted_nodes);
  entry_nodes_.reserve(counted_nodes);
  for (const int32_t node : order) {
    const size_t begin = next_begin[static_cast<size_t>(node)];
    const size_t end = next_begin[static_cast<size_t>(node) + 1];
    if (begin == end) continue;
    const TrieNode& trie_node = trie_[static_cast<size_t>(node)];
    ContextEntry entry;
    entry.context.resize(trie_node.depth);
    size_t pos = 0;
    for (int32_t walk = node; walk > 0;
         walk = trie_[static_cast<size_t>(walk)].parent) {
      entry.context[pos++] = trie_[static_cast<size_t>(walk)].edge;
    }
    entry.nexts.assign(nexts.begin() + static_cast<ptrdiff_t>(begin),
                       nexts.begin() + static_cast<ptrdiff_t>(end));
    for (const NextQueryCount& nc : entry.nexts) entry.total_count += nc.count;
    SortNexts(&entry.nexts);
    entry.start_count = trie_node.start_count;
    total_occurrences_ += entry.total_count;
    trie_[static_cast<size_t>(node)].entry =
        static_cast<int32_t>(entries_.size());
    entry_nodes_.push_back(node);
    entries_.push_back(std::move(entry));
  }

  // CSR child arrays, grouped by parent with a counting pass. Scattering
  // the children in canonical order lists each node's edges query-sorted:
  // siblings share their parent's rank, so their keys order by edge.
  std::vector<uint32_t> edge_begin(num_nodes + 1, 0);
  for (size_t i = 1; i < num_nodes; ++i) {
    ++edge_begin[static_cast<size_t>(trie_[i].parent) + 1];
  }
  for (size_t i = 1; i <= num_nodes; ++i) edge_begin[i] += edge_begin[i - 1];
  edges_.resize(num_nodes - 1);
  {
    std::vector<uint32_t> cursor(edge_begin.begin(), edge_begin.end() - 1);
    for (size_t i = 1; i < num_nodes; ++i) {  // order[0] is the root
      const TrieNode& child = trie_[static_cast<size_t>(order[i])];
      edges_[cursor[static_cast<size_t>(child.parent)]++] =
          TrieEdge{child.edge, order[i]};
    }
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    if (edge_begin[i] == edge_begin[i + 1]) continue;
    trie_[i].edges_begin = edge_begin[i];
    trie_[i].edges_end = edge_begin[i + 1];
  }
}

int32_t ContextIndex::FindChild(int32_t node, QueryId query) const {
  const std::span<const TrieEdge> kids = trie_children(node);
  const int32_t at = FindEdgeIndex(kids, query);
  return at < 0 ? -1 : kids[static_cast<size_t>(at)].node;
}

const ContextEntry* ContextIndex::Lookup(
    std::span<const QueryId> context) const {
  if (context.empty() || trie_.empty()) return nullptr;
  int32_t node = 0;
  for (size_t back = 0; back < context.size(); ++back) {
    node = FindChild(node, context[context.size() - 1 - back]);
    if (node < 0) return nullptr;
  }
  return entry_at(node);
}

std::vector<const ContextEntry*> ContextIndex::SortedEntries() const {
  std::vector<const ContextEntry*> out;
  out.reserve(entries_.size());
  for (const ContextEntry& entry : entries_) out.push_back(&entry);
  return out;
}

std::vector<GroundTruthEntry> BuildGroundTruth(
    const std::vector<AggregatedSession>& test_sessions, size_t n,
    size_t max_context_length) {
  ContextIndex index;
  index.Build(test_sessions, ContextIndex::Mode::kPrefix, max_context_length);
  std::vector<GroundTruthEntry> out;
  out.reserve(index.size());
  for (const ContextEntry* entry : index.SortedEntries()) {
    GroundTruthEntry gt;
    gt.context = entry->context;
    gt.support = entry->total_count;
    const size_t take = std::min(n, entry->nexts.size());
    gt.ranked_next.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      gt.ranked_next.push_back(entry->nexts[i].query);
    }
    out.push_back(std::move(gt));
  }
  return out;
}

QueryRoles ComputeQueryRoles(const std::vector<AggregatedSession>& sessions) {
  QueryRoles roles;
  for (const AggregatedSession& s : sessions) {
    for (size_t i = 0; i < s.queries.size(); ++i) {
      const QueryId q = s.queries[i];
      roles.seen.insert(q);
      if (s.queries.size() >= 2) roles.in_multi_session.insert(q);
      if (i + 1 < s.queries.size()) roles.at_non_last.insert(q);
    }
  }
  return roles;
}

}  // namespace sqp
