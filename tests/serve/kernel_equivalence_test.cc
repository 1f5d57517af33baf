// Property suite pinning the dense-accumulator SIMD serving walk to the
// sparse sort-merge: for every compiled-in dispatch level, the compact
// snapshot's recommendations (scores, order, tie-breaks, covered flags)
// must be bit-identical to the push + sort-merge path (reached by serving
// a ModelRef copy with dense_merge = false) — across synthetic corpora,
// narrow and wide id pools, owned and mapped storage, and reused scratch
// (the generation-reset property end to end).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/serve_kernels.h"
#include "core/snapshot_io.h"
#include "oracle/pst_walk.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

/// Pins the dispatch level for one scope.
class ActiveLevelGuard {
 public:
  explicit ActiveLevelGuard(kernels::SimdLevel level)
      : previous_(kernels::SetActiveLevel(level)) {}
  ~ActiveLevelGuard() { kernels::SetActiveLevel(previous_); }

 private:
  kernels::SimdLevel previous_;
};

std::vector<kernels::SimdLevel> SupportedLevels() {
  std::vector<kernels::SimdLevel> levels;
  for (int i = 0; i < kernels::kNumSimdLevels; ++i) {
    const auto level = static_cast<kernels::SimdLevel>(i);
    if (kernels::LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

std::shared_ptr<const ModelSnapshot> BuildFull(
    const std::vector<AggregatedSession>& sessions, uint64_t version = 1) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return built.value();
}

const std::shared_ptr<const ModelSnapshot>& SharedFull() {
  static const auto* snapshot = new std::shared_ptr<const ModelSnapshot>(
      BuildFull(SharedCorpus().base));
  return *snapshot;
}

std::vector<std::vector<QueryId>> TestContexts() {
  std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 500);
  const std::vector<std::vector<QueryId>> drifted =
      CollectContexts(SharedCorpus().drifted, 150);
  contexts.insert(contexts.end(), drifted.begin(), drifted.end());
  return contexts;
}

/// The sparse-path reference answers for `contexts` (dispatch-independent:
/// the sort-merge never touches a kernel).
std::vector<Recommendation> SparseReference(
    const CompactServingBase& snapshot,
    const std::vector<std::vector<QueryId>>& contexts, size_t top_n) {
  serving::ModelRef sparse = snapshot.model_ref();
  sparse.dense_merge = false;
  SnapshotScratch scratch;
  std::vector<Recommendation> out;
  out.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    out.push_back(RecommendFromModel(sparse, context, top_n, &scratch));
  }
  return out;
}

/// Asserts the dense walk reproduces `reference` bit-for-bit at every
/// supported dispatch level, reusing one scratch across all contexts (so a
/// stale accumulator generation would corrupt a later answer and fail).
void ExpectDenseMatchesReferenceAtEveryLevel(
    const CompactServingBase& snapshot,
    const std::vector<std::vector<QueryId>>& contexts, size_t top_n,
    const std::vector<Recommendation>& reference) {
  for (const kernels::SimdLevel level : SupportedLevels()) {
    ActiveLevelGuard guard(level);
    SnapshotScratch scratch;
    size_t mismatches = 0;
    for (size_t i = 0; i < contexts.size(); ++i) {
      const Recommendation dense =
          snapshot.Recommend(contexts[i], top_n, &scratch);
      if (!SameRecommendation(reference[i], dense)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u)
        << "dense walk diverged from the sparse reference at level "
        << kernels::SimdLevelName(level);
  }
}

TEST(KernelEquivalenceTest, DenseWalkMatchesSparseReferenceNarrowPools) {
  // The synthetic corpus stays within 16-bit ids, so this exercises the
  // narrow (u16) kernels, with truncation (top_k=10) and without.
  for (const size_t top_k : {size_t{10}, size_t{0}}) {
    const auto compact = CompactSnapshot::FromSnapshot(
        *SharedFull(), CompactOptions{.top_k = top_k});
    const std::vector<std::vector<QueryId>> contexts = TestContexts();
    for (const size_t top_n : {size_t{1}, size_t{10}}) {
      const std::vector<Recommendation> reference =
          SparseReference(*compact, contexts, top_n);
      ExpectDenseMatchesReferenceAtEveryLevel(*compact, contexts, top_n,
                                              reference);
    }
  }
}

TEST(KernelEquivalenceTest, DenseWalkMatchesFullModelBitExactly) {
  // Transitivity check against the Pst reference walk: the exact packing
  // (unbounded K, unshifted counts) reproduces it bit-for-bit — and
  // therefore so must the dense walk at every dispatch level.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 0});
  const std::vector<std::vector<QueryId>> contexts = TestContexts();
  std::vector<Recommendation> reference;
  reference.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    reference.push_back(oracle::Recommend(*SharedFull(), context, 10));
  }
  ExpectDenseMatchesReferenceAtEveryLevel(*compact, contexts, 10, reference);
}

TEST(KernelEquivalenceTest, DenseWalkMatchesSparseReferenceWidePools) {
  // Ids beyond 65535 force the wide (u32) pools — the u32 kernel slot.
  const QueryId base = 70000;
  const std::vector<AggregatedSession> sessions = {
      {{base, base + 1, base + 2}, 5},
      {{base + 1, base + 3}, 3},
      {{base, base + 1, base + 3}, 2},
      {{base + 2, base + 1, base + 2}, 4},
      {{base + 1, base + 2, base + 4}, 6},
      {{base + 3, base, base + 1}, 1}};
  const auto full = BuildFull(sessions, /*version=*/7);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});
  std::vector<std::vector<QueryId>> contexts;
  for (const AggregatedSession& session : sessions) {
    for (size_t len = 1; len <= session.queries.size(); ++len) {
      contexts.emplace_back(session.queries.begin(),
                            session.queries.begin() +
                                static_cast<ptrdiff_t>(len));
    }
  }
  const std::vector<Recommendation> reference =
      SparseReference(*compact, contexts, 5);
  ExpectDenseMatchesReferenceAtEveryLevel(*compact, contexts, 5, reference);
}

TEST(KernelEquivalenceTest, MappedSnapshotServesDenseWalkIdentically) {
  // The zero-copy replica runs the same dense walk off mapped storage;
  // its bind-time derivations (FinalizeDerived) must land it on the same
  // answers as the owned snapshot.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 10});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sqp_kernel_equiv_" + std::to_string(::getpid()) + ".blob"))
          .string();
  ASSERT_TRUE(SnapshotIo::Save(*compact, path).ok());
  const auto mapped = SnapshotIo::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<std::vector<QueryId>> contexts = TestContexts();
  const std::vector<Recommendation> reference =
      SparseReference(*compact, contexts, 10);
  ExpectDenseMatchesReferenceAtEveryLevel(**mapped, contexts, 10, reference);

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(KernelEquivalenceTest, ReusedScratchNeverLeaksAcrossRequests) {
  // Serve the same context list twice through one scratch, interleaved
  // with unrelated contexts, and require answer stability — a stale
  // accumulator generation or un-reset touched list would break this.
  const auto compact =
      CompactSnapshot::FromSnapshot(*SharedFull(), CompactOptions{.top_k = 10});
  const std::vector<std::vector<QueryId>> contexts = TestContexts();
  SnapshotScratch reused;
  std::vector<Recommendation> first;
  first.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    first.push_back(compact->Recommend(context, 10, &reused));
  }
  size_t mismatches = 0;
  for (size_t i = contexts.size(); i-- > 0;) {  // reversed: different
    const Recommendation again =                // interleaving of slots
        compact->Recommend(contexts[i], 10, &reused);
    if (!SameRecommendation(first[i], again)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sqp
