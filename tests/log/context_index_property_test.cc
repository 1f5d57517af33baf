// Property tests for the arena-trie ContextIndex: its counts must be
// byte-identical to a straightforward map-based reference implementation
// (the pre-arena algorithm) on randomly synthesized logs, and its trie
// accessors must agree with the materialized entries.

#include <algorithm>
#include <map>
#include <unordered_map>

#include <gtest/gtest.h>

#include "log/context_builder.h"
#include "util/hash.h"
#include "util/random.h"

namespace sqp {
namespace {

/// Reference counting: the original nested-map algorithm, kept verbatim in
/// spirit (hash context vectors, nested next maps) as the ground truth the
/// arena trie must reproduce exactly.
struct ReferenceEntry {
  std::vector<NextQueryCount> nexts;
  uint64_t total_count = 0;
  uint64_t start_count = 0;
};

std::map<std::vector<QueryId>, ReferenceEntry> ReferenceIndex(
    const std::vector<AggregatedSession>& sessions, ContextIndex::Mode mode,
    size_t max_context_length) {
  std::unordered_map<std::vector<QueryId>,
                     std::unordered_map<QueryId, uint64_t>, IdSequenceHash>
      counts;
  std::unordered_map<std::vector<QueryId>, uint64_t, IdSequenceHash>
      start_counts;
  std::vector<QueryId> key;
  for (const AggregatedSession& session : sessions) {
    const std::vector<QueryId>& q = session.queries;
    if (q.size() < 2) continue;
    for (size_t end = 1; end < q.size(); ++end) {
      const size_t max_len =
          max_context_length == 0 ? end : std::min(end, max_context_length);
      if (mode == ContextIndex::Mode::kPrefix) {
        if (max_context_length != 0 && end > max_context_length) continue;
        key.assign(q.begin(), q.begin() + static_cast<ptrdiff_t>(end));
        counts[key][q[end]] += session.frequency;
        start_counts[key] += session.frequency;
      } else {
        for (size_t len = 1; len <= max_len; ++len) {
          const size_t start = end - len;
          key.assign(q.begin() + static_cast<ptrdiff_t>(start),
                     q.begin() + static_cast<ptrdiff_t>(end));
          counts[key][q[end]] += session.frequency;
          if (start == 0) start_counts[key] += session.frequency;
        }
      }
    }
  }
  std::map<std::vector<QueryId>, ReferenceEntry> reference;
  for (const auto& [context, next_map] : counts) {
    ReferenceEntry entry;
    for (const auto& [next, count] : next_map) {
      entry.nexts.push_back(NextQueryCount{next, count});
      entry.total_count += count;
    }
    std::sort(entry.nexts.begin(), entry.nexts.end(),
              [](const NextQueryCount& a, const NextQueryCount& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.query < b.query;
              });
    auto it = start_counts.find(context);
    entry.start_count = it == start_counts.end() ? 0 : it->second;
    reference.emplace(context, std::move(entry));
  }
  return reference;
}

std::vector<AggregatedSession> RandomCorpus(uint64_t seed, size_t vocab,
                                            size_t num_sessions) {
  Rng rng(seed);
  std::vector<AggregatedSession> sessions;
  sessions.reserve(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    AggregatedSession session;
    const size_t len = 1 + rng.Geometric(0.4) % 9;
    for (size_t j = 0; j < len; ++j) {
      session.queries.push_back(static_cast<QueryId>(rng.UniformInt(vocab)));
    }
    session.frequency = 1 + rng.UniformInt(30);
    sessions.push_back(std::move(session));
  }
  return sessions;
}

using IndexParam = std::tuple<int /*mode*/, size_t /*max_len*/,
                              uint64_t /*seed*/>;

class ContextIndexPropertyTest : public ::testing::TestWithParam<IndexParam> {
 protected:
  void SetUp() override {
    const auto& [mode, max_len, seed] = GetParam();
    mode_ = mode == 0 ? ContextIndex::Mode::kPrefix
                      : ContextIndex::Mode::kSubstring;
    max_len_ = max_len;
    sessions_ = RandomCorpus(seed, /*vocab=*/30, /*num_sessions=*/400);
    index_.Build(sessions_, mode_, max_len_);
  }

  std::vector<AggregatedSession> sessions_;
  ContextIndex index_;
  ContextIndex::Mode mode_ = ContextIndex::Mode::kPrefix;
  size_t max_len_ = 0;
};

TEST_P(ContextIndexPropertyTest, MatchesReferenceCountsExactly) {
  const auto reference = ReferenceIndex(sessions_, mode_, max_len_);
  const auto entries = index_.SortedEntries();
  ASSERT_EQ(entries.size(), reference.size());
  uint64_t total = 0;
  for (const ContextEntry* entry : entries) {
    const auto it = reference.find(entry->context);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(entry->total_count, it->second.total_count);
    EXPECT_EQ(entry->start_count, it->second.start_count);
    ASSERT_EQ(entry->nexts.size(), it->second.nexts.size());
    for (size_t i = 0; i < entry->nexts.size(); ++i) {
      EXPECT_EQ(entry->nexts[i].query, it->second.nexts[i].query);
      EXPECT_EQ(entry->nexts[i].count, it->second.nexts[i].count);
    }
    total += entry->total_count;
  }
  EXPECT_EQ(index_.total_occurrences(), total);
}

TEST_P(ContextIndexPropertyTest, LookupFindsEveryEntryAndOnlyEntries) {
  for (const ContextEntry* entry : index_.SortedEntries()) {
    EXPECT_EQ(index_.Lookup(entry->context), entry);
  }
  // A context extended by an unseen query must miss.
  for (const ContextEntry* entry : index_.SortedEntries()) {
    std::vector<QueryId> extended = entry->context;
    extended.push_back(9999);
    EXPECT_EQ(index_.Lookup(extended), nullptr);
  }
}

TEST_P(ContextIndexPropertyTest, TrieAccessorsConsistentWithEntries) {
  for (size_t i = 0; i < index_.size(); ++i) {
    const ContextEntry& entry = index_.sorted_entry(i);
    const int32_t node = index_.sorted_entry_node(i);
    EXPECT_EQ(index_.entry_at(node), &entry);
    EXPECT_EQ(index_.trie_depth(node), entry.context.size());
    // The trie parent must hold the context minus its oldest query.
    const int32_t parent = index_.trie_parent(node);
    if (entry.context.size() == 1) {
      EXPECT_EQ(parent, 0);
    } else {
      const ContextEntry* parent_entry = index_.entry_at(parent);
      if (mode_ == ContextIndex::Mode::kSubstring) {
        // Substring counting is suffix-closed: the parent context is
        // always an entry itself.
        ASSERT_NE(parent_entry, nullptr);
        EXPECT_TRUE(std::equal(entry.context.begin() + 1,
                               entry.context.end(),
                               parent_entry->context.begin(),
                               parent_entry->context.end()));
      }
      EXPECT_EQ(index_.trie_depth(parent), entry.context.size() - 1);
    }
  }
}

TEST_P(ContextIndexPropertyTest, TrieChildEdgesSortedAndLinked) {
  for (size_t node = 0; node < index_.num_trie_nodes(); ++node) {
    const auto kids = index_.trie_children(static_cast<int32_t>(node));
    for (size_t i = 0; i < kids.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(kids[i - 1].query, kids[i].query);
      }
      EXPECT_EQ(index_.trie_parent(kids[i].node), static_cast<int32_t>(node));
    }
  }
}

/// Asserts that `entries` is strictly increasing in (context length,
/// lexicographic context) — the canonical order of SortedEntries().
void ExpectCanonicalOrder(const std::vector<const ContextEntry*>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    const std::vector<QueryId>& a = entries[i - 1]->context;
    const std::vector<QueryId>& b = entries[i]->context;
    const bool increasing = a.size() != b.size() ? a.size() < b.size() : a < b;
    ASSERT_TRUE(increasing) << "entries " << i - 1 << " and " << i
                            << " are out of (length, lex) order";
  }
}

TEST_P(ContextIndexPropertyTest, SortedEntriesInCanonicalOrder) {
  ExpectCanonicalOrder(index_.SortedEntries());
}

TEST_P(ContextIndexPropertyTest, BuildThenAppendMatchesOneShotBuild) {
  // Split the sessions, Build the first part and Append the rest: the
  // re-finalized index must keep the canonical order and equal the
  // one-shot Build entry for entry.
  const size_t split = sessions_.size() / 3;
  const std::vector<AggregatedSession> head(
      sessions_.begin(), sessions_.begin() + static_cast<ptrdiff_t>(split));
  const std::vector<AggregatedSession> tail(
      sessions_.begin() + static_cast<ptrdiff_t>(split), sessions_.end());
  ContextIndex appended;
  appended.Build(head, mode_, max_len_);
  appended.Append(tail);

  const auto expected = index_.SortedEntries();
  const auto entries = appended.SortedEntries();
  ExpectCanonicalOrder(entries);
  ASSERT_EQ(entries.size(), expected.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i]->context, expected[i]->context);
    EXPECT_EQ(entries[i]->total_count, expected[i]->total_count);
    EXPECT_EQ(entries[i]->start_count, expected[i]->start_count);
    ASSERT_EQ(entries[i]->nexts.size(), expected[i]->nexts.size());
    for (size_t j = 0; j < entries[i]->nexts.size(); ++j) {
      EXPECT_EQ(entries[i]->nexts[j].query, expected[i]->nexts[j].query);
      EXPECT_EQ(entries[i]->nexts[j].count, expected[i]->nexts[j].count);
    }
  }
  EXPECT_EQ(appended.total_occurrences(), index_.total_occurrences());
  for (size_t node = 0; node < appended.num_trie_nodes(); ++node) {
    const auto kids = appended.trie_children(static_cast<int32_t>(node));
    for (size_t i = 0; i < kids.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(kids[i - 1].query, kids[i].query);
      }
      EXPECT_EQ(appended.trie_parent(kids[i].node),
                static_cast<int32_t>(node));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModeSweep, ContextIndexPropertyTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(size_t{0}, size_t{2}, size_t{5}),
                       ::testing::Values(uint64_t{7}, uint64_t{1234})));

}  // namespace
}  // namespace sqp
