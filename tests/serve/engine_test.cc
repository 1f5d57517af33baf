// RecommenderEngine basics: snapshot publish/swap semantics, single-query
// serving parity with the Pst reference walk over the published model, and
// batched RecommendMany parity across pool configurations.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/pst_walk.h"
#include "serve/recommender_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

std::shared_ptr<const ModelSnapshot> BuildSnapshot(
    const std::vector<AggregatedSession>& sessions, uint64_t version) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return built.value();
}

TEST(RecommenderEngineTest, UnpublishedEngineServesEmpty) {
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  EXPECT_EQ(engine.CurrentSnapshot(), nullptr);
  EXPECT_EQ(engine.current_version(), 0u);

  const std::vector<QueryId> context = {1, 2, 3};
  const ServeResult served = engine.Recommend(context, 5, ServeOptions{});
  const Recommendation& rec = served.recommendation;
  EXPECT_FALSE(rec.covered);
  EXPECT_TRUE(rec.queries.empty());
  EXPECT_EQ(served.served_version, 0u);

  const BatchResult result = engine.RecommendMany(
      std::vector<std::vector<QueryId>>{{1}, {2}}, 5, ServeOptions{});
  const std::vector<Recommendation>& batch = result.results;
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].covered);
  EXPECT_EQ(result.served_version, 0u);
}

TEST(RecommenderEngineTest, SingleQueryMatchesSnapshot) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 7);
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(oracle::PackExact(*snapshot));
  EXPECT_EQ(engine.current_version(), 7u);

  for (const std::vector<QueryId>& context :
       CollectContexts(SharedCorpus().base, 200)) {
    const ServeResult served = engine.Recommend(context, 5, ServeOptions{});
    const Recommendation& actual = served.recommendation;
    EXPECT_EQ(served.served_version, 7u);
    ExpectSameRecommendation(oracle::Recommend(*snapshot, context, 5),
                             actual);
  }
  EXPECT_GE(engine.stats().queries_served, 200u);
}

TEST(RecommenderEngineTest, BatchedMatchesSingleAcrossPoolConfigs) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 3);
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 300);

  std::vector<Recommendation> expected;
  expected.reserve(contexts.size());
  for (const std::vector<QueryId>& context : contexts) {
    expected.push_back(oracle::Recommend(*snapshot, context, 5));
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RecommenderEngine engine(EngineOptions{.num_threads = threads});
    engine.Publish(oracle::PackExact(*snapshot));
    const BatchResult result = engine.RecommendMany(
        contexts, 5, ServeOptions{.lane = QosLane::kBulk});
    const std::vector<Recommendation>& actual = result.results;
    EXPECT_EQ(result.served_version, 3u);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      ExpectSameRecommendation(expected[i], actual[i]);
    }
  }

  // Below the fan-out threshold the batch runs inline; results are the same.
  RecommenderEngine engine(EngineOptions{.num_threads = 4});
  engine.Publish(oracle::PackExact(*snapshot));
  const std::vector<std::vector<QueryId>> small(
      contexts.begin(), contexts.begin() + kMinBatchFanout - 1);
  const std::vector<Recommendation> inline_results =
      engine.RecommendMany(small, 5, ServeOptions{}).results;
  ASSERT_EQ(inline_results.size(), small.size());
  for (size_t i = 0; i < inline_results.size(); ++i) {
    ExpectSameRecommendation(expected[i], inline_results[i]);
  }
}

TEST(RecommenderEngineTest, PublishSwapsAtomicallyBetweenVersions) {
  const auto v1 = oracle::PackExact(*BuildSnapshot(SharedCorpus().base, 1));
  std::vector<AggregatedSession> all = SharedCorpus().base;
  all.insert(all.end(), SharedCorpus().drifted.begin(),
             SharedCorpus().drifted.end());
  const auto v2 = oracle::PackExact(*BuildSnapshot(all, 2));

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  engine.Publish(v1);
  EXPECT_EQ(engine.current_version(), 1u);
  EXPECT_EQ(engine.CurrentSnapshot().get(), v1.get());
  engine.Publish(v2);
  EXPECT_EQ(engine.current_version(), 2u);
  EXPECT_EQ(engine.CurrentSnapshot().get(), v2.get());
  EXPECT_EQ(engine.stats().snapshots_published, 2u);

  // The old snapshot object stays valid for holders of the pointer.
  SnapshotScratch scratch;
  const std::vector<QueryId> context = CollectContexts(all, 1)[0];
  EXPECT_NO_FATAL_FAILURE(v1->Recommend(context, 5, &scratch));
}

TEST(RecommenderEngineTest, EmptyBatchIsFine) {
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(oracle::PackExact(*BuildSnapshot(SharedCorpus().base, 1)));
  const std::vector<std::vector<QueryId>> none;
  EXPECT_TRUE(engine.RecommendMany(none, 5, ServeOptions{}).results.empty());
}

}  // namespace
}  // namespace sqp
