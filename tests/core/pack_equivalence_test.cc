// Pack-equivalence suite for the footprint packing
// (CompactSnapshot::FromSnapshot with top_k > 0): the entries it keeps must
// be exactly those of the reference truncation policy in
// tests/oracle/kept_entries.h, node by node, and the saved blob must carry
// exactly the reference's bytes. Seeded corpora cover narrow and wide
// (> 65535) query ids and a corpus where almost every depth-1 node
// truncates, at top_k 1, 2, 4, 10 and 16.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/blob_format.h"
#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "oracle/kept_entries.h"

namespace sqp {
namespace {

/// Deterministic corpus: sessions of length 2..max_length over
/// `vocabulary` ids starting at `id_offset`, frequencies 1..8. `skewed`
/// draws the min of two uniform ids, so popular continuations emerge;
/// otherwise ids are uniform and every context sees most of the vocabulary
/// next.
std::vector<AggregatedSession> SeededCorpus(uint64_t seed, size_t num_sessions,
                                            QueryId vocabulary, bool skewed,
                                            size_t max_length = 6,
                                            QueryId id_offset = 0) {
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<AggregatedSession> sessions(num_sessions);
  for (AggregatedSession& session : sessions) {
    const size_t length = 2 + next() % (max_length - 1);
    for (size_t q = 0; q < length; ++q) {
      QueryId id = static_cast<QueryId>(next() % vocabulary);
      if (skewed) id = std::min(id, static_cast<QueryId>(next() % vocabulary));
      session.queries.push_back(id_offset + id);
    }
    session.frequency = 1 + next() % 8;
  }
  return sessions;
}

struct PackCase {
  const char* name;
  std::vector<AggregatedSession> corpus;
  size_t vocabulary_bound;
};

const std::vector<PackCase>& Cases() {
  static const std::vector<PackCase> cases = {
      {"skewed_small", SeededCorpus(11, 600, 60, true), 1 << 10},
      {"skewed_large", SeededCorpus(12, 2500, 200, true), 1 << 10},
      {"wide_ids", SeededCorpus(13, 800, 80, true, 6, 70000), 1 << 18},
      {"dense_roots", SeededCorpus(14, 3000, 24, false), 1 << 10},
      // Long sessions over a small vocabulary: deep nodes with one or two
      // continuations under truncating parents, whose served lists reach
      // past the parents' own top-K (the aggregate closure pins entries
      // there that no other walk pins).
      {"long_sessions", SeededCorpus(1, 1000, 15, true, 9), 1 << 10},
  };
  return cases;
}

std::shared_ptr<const ModelSnapshot> Train(const PackCase& c) {
  TrainingData data;
  data.sessions = &c.corpus;
  data.vocabulary_size = c.vocabulary_bound;
  MvmmOptions options;
  options.default_max_depth = 4;
  auto built = ModelSnapshot::Build(data, options, /*version=*/1);
  SQP_CHECK(built.ok());
  return built.value();
}

uint8_t BlockShift(uint64_t max_count) {
  uint8_t shift = 0;
  while ((max_count >> shift) > 0xffff) ++shift;
  return shift;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// The reference's bytes of the three sections the truncation policy
/// decides — CSR offsets, kept query ids, count codes — little-endian as
/// the blob stores them. Every other section is independent of which
/// entries are kept.
struct PolicySections {
  std::vector<uint8_t> next_begin;
  std::vector<uint8_t> next_query;
  std::vector<uint8_t> next_code;
  uint64_t num_entries = 0;
};

PolicySections ReferenceSections(
    const ModelSnapshot& full, const std::vector<std::vector<uint32_t>>& kept,
    bool narrow_ids) {
  const auto append = [](std::vector<uint8_t>* out, uint64_t value,
                         size_t width) {
    for (size_t b = 0; b < width; ++b) {
      out->push_back(static_cast<uint8_t>(value >> (8 * b)));
    }
  };
  PolicySections ref;
  const std::vector<Pst::Node>& nodes = full.pst()->nodes();
  for (size_t id = 0; id < nodes.size(); ++id) {
    append(&ref.next_begin, ref.num_entries, 4);
    const uint8_t shift =
        nodes[id].nexts.empty() ? 0 : BlockShift(nodes[id].nexts[0].count);
    for (const uint32_t i : kept[id]) {
      const NextQueryCount& nc = nodes[id].nexts[i];
      append(&ref.next_query, nc.query, narrow_ids ? 2 : 4);
      append(&ref.next_code, std::max<uint64_t>(1, nc.count >> shift), 2);
      ++ref.num_entries;
    }
  }
  append(&ref.next_begin, ref.num_entries, 4);
  return ref;
}

using PackParam = std::tuple<size_t /*case*/, size_t /*top_k*/>;

class PackEquivalenceTest : public ::testing::TestWithParam<PackParam> {
 protected:
  void SetUp() override {
    const auto& [case_index, top_k] = GetParam();
    top_k_ = top_k;
    full_ = Train(Cases()[case_index]);
    packed_ = CompactSnapshot::FromSnapshot(*full_, {.top_k = top_k_});
    kept_ = oracle::KeptEntries(*full_, top_k_);
  }

  size_t top_k_ = 0;
  std::shared_ptr<const ModelSnapshot> full_;
  std::shared_ptr<const CompactSnapshot> packed_;
  std::vector<std::vector<uint32_t>> kept_;
};

TEST_P(PackEquivalenceTest, KeepsTheReferenceQueriesAtEveryNode) {
  const std::vector<Pst::Node>& nodes = full_->pst()->nodes();
  const serving::ModelRef& m = packed_->model_ref();
  ASSERT_EQ(m.num_nodes, nodes.size());
  ASSERT_EQ(kept_.size(), nodes.size());
  for (size_t id = 0; id < nodes.size(); ++id) {
    std::vector<QueryId> expected;
    for (const uint32_t i : kept_[id]) {
      expected.push_back(nodes[id].nexts[i].query);
    }
    std::vector<QueryId> packed;
    for (uint32_t e = m.next_begin[id]; e < m.next_begin[id + 1]; ++e) {
      packed.push_back(m.narrow_ids ? m.narrow.next_query[e]
                                    : m.wide.next_query[e]);
    }
    ASSERT_EQ(packed, expected) << "node " << id;
  }
}

TEST_P(PackEquivalenceTest, SavesTheReferenceBytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sqp_pack_equivalence_" + std::to_string(::getpid()) + ".blob"))
          .string();
  ASSERT_TRUE(SnapshotIo::Save(*packed_, path).ok());
  const std::vector<uint8_t> blob = FileBytes(path);
  std::filesystem::remove(path);

  serving::BlobLayout layout;
  ASSERT_EQ(serving::ParseBlobLayout(blob.data(), blob.size(),
                                     /*verify_checksums=*/true, &layout),
            serving::BlobError::kNone);
  ASSERT_FALSE(layout.wide_codes);  // footprint codes are u16
  const PolicySections ref =
      ReferenceSections(*full_, kept_, layout.narrow_ids);
  EXPECT_EQ(layout.top_k, top_k_);
  EXPECT_EQ(layout.num_entries, ref.num_entries);
  const auto section = [&](serving::BlobSectionId id) {
    const serving::BlobSectionRef& s = layout.sections[id];
    return std::vector<uint8_t>(blob.begin() + static_cast<ptrdiff_t>(s.offset),
                                blob.begin() +
                                    static_cast<ptrdiff_t>(s.offset + s.size));
  };
  EXPECT_TRUE(section(serving::kSecNextBegin) == ref.next_begin);
  EXPECT_TRUE(section(serving::kSecNextQuery) == ref.next_query);
  EXPECT_TRUE(section(serving::kSecNextCode) == ref.next_code);
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, PackEquivalenceTest,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{3}, size_t{4}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{10}, size_t{16})),
    [](const ::testing::TestParamInfo<PackParam>& info) {
      return std::string(Cases()[std::get<0>(info.param)].name) + "_top" +
             std::to_string(std::get<1>(info.param));
    });

// The corpus shapes the sweep relies on.
TEST(PackEquivalenceCorpusTest, EveryCorpusTruncatesAtTopTen) {
  // The closure passes run, not just the per-node top-K.
  for (const PackCase& c : Cases()) {
    const auto full = Train(c);
    size_t truncating = 0;
    for (const Pst::Node& node : full->pst()->nodes()) {
      truncating += node.nexts.size() > 10;
    }
    EXPECT_GT(truncating, 0u) << c.name;
  }
}

TEST(PackEquivalenceCorpusTest, WideIdsCorpusPacksWidePools) {
  const auto full = Train(Cases()[2]);
  const auto packed = CompactSnapshot::FromSnapshot(*full, {.top_k = 4});
  EXPECT_FALSE(packed->model_ref().narrow_ids);
}

TEST(PackEquivalenceCorpusTest, DenseCorpusTruncatesAlmostEveryRootChild) {
  const auto full = Train(Cases()[3]);
  const std::vector<Pst::Node>& nodes = full->pst()->nodes();
  size_t depth1 = 0;
  size_t truncating = 0;
  for (size_t id = 1; id < nodes.size(); ++id) {
    if (nodes[id].parent != 0) continue;
    ++depth1;
    truncating += nodes[id].nexts.size() > 16;
  }
  ASSERT_GT(depth1, 0u);
  EXPECT_GE(truncating * 10, depth1 * 9);  // >= 90% at the largest top_k
}

}  // namespace
}  // namespace sqp
