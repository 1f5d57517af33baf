// The shared footprint helpers must (a) encode the documented formulas and
// (b) actually be what the models report through Stats(), so full and
// compact footprints stay on one comparable scale.

#include <vector>

#include <gtest/gtest.h>

#include "core/memory_accounting.h"
#include "core/pst.h"
#include "log/context_builder.h"

namespace sqp {
namespace {

TEST(MemoryAccountingTest, PstNodeBytesFormula) {
  EXPECT_EQ(PstNodeBytes(0, 0, 0), sizeof(Pst::Node));
  EXPECT_EQ(PstNodeBytes(3, 5, 2),
            sizeof(Pst::Node) + 3 * sizeof(QueryId) +
                5 * sizeof(NextQueryCount) + 2 * sizeof(Pst::Edge));
}

TEST(MemoryAccountingTest, ContextTableBytesFormula) {
  EXPECT_EQ(ContextTableBytes(0, 0, 0), 0u);
  EXPECT_EQ(ContextTableBytes(4, 9, 7),
            4 * (sizeof(ContextEntry) + kHashSlotOverheadBytes) +
                7 * sizeof(QueryId) + 9 * sizeof(NextQueryCount));
}

TEST(MemoryAccountingTest, FlatBytesIsSizeTimesElement) {
  std::vector<uint16_t> codes(11);
  std::vector<double> sigmas(3);
  EXPECT_EQ(FlatBytes(codes), 22u);
  EXPECT_EQ(FlatBytes(sigmas), 24u);
}

TEST(MemoryAccountingTest, PstMemoryBytesIsSumOfNodeFootprints) {
  const std::vector<AggregatedSession> sessions = {
      {{1, 2, 3}, 4}, {{2, 3, 1}, 2}, {{1, 2}, 3}, {{3, 1, 2}, 1}};
  ContextIndex index;
  index.Build(sessions, ContextIndex::Mode::kSubstring, 0);
  Pst pst;
  ASSERT_TRUE(pst.Build(index, PstOptions{.epsilon = 0.0}).ok());

  uint64_t expected = 0;
  QueryId max_root_query = 0;
  for (const Pst::Node& node : pst.nodes()) {
    expected += PstNodeBytes(node.context.size(), node.nexts.size(),
                             node.children.size());
  }
  for (const Pst::Edge& edge : pst.root().children) {
    max_root_query = edge.query;  // sorted ascending
  }
  // Standalone tree: no view masks, plus the dense root fan-out index.
  expected += (static_cast<uint64_t>(max_root_query) + 1) * sizeof(int32_t);
  EXPECT_EQ(pst.memory_bytes(), expected);
}

TEST(MemoryAccountingTest, SharedTreeChargesOneMaskPerNode) {
  const std::vector<AggregatedSession> sessions = {
      {{1, 2, 3}, 4}, {{2, 3, 1}, 2}, {{1, 2}, 3}};
  ContextIndex index;
  index.Build(sessions, ContextIndex::Mode::kSubstring, 0);
  const std::vector<PstOptions> views = {PstOptions{.epsilon = 0.0},
                                         PstOptions{.epsilon = 0.05}};
  Pst shared;
  ASSERT_TRUE(shared.BuildShared(index, views).ok());

  uint64_t without_masks = 0;
  for (const Pst::Node& node : shared.nodes()) {
    without_masks += PstNodeBytes(node.context.size(), node.nexts.size(),
                                  node.children.size());
  }
  const uint64_t root_index =
      (static_cast<uint64_t>(shared.root().children.back().query) + 1) *
      sizeof(int32_t);
  EXPECT_EQ(shared.memory_bytes(),
            without_masks + root_index +
                shared.size() * sizeof(Pst::ViewMask));
}

}  // namespace
}  // namespace sqp
