// Deadline-aware serving: the acceptance property is that with no
// overload the QoS paths are bit-identical to the legacy API on both
// engines (unbounded AND generously-bounded deadlines), and that under
// pressure the engine sheds whole requests, cuts batches mid-flight with
// explicit per-item statuses, and degrades top_n — never deadlocking and
// never touching deadline-free traffic. Both engines run batches through
// one batch runtime, so the batch cases (expired on arrival, empty,
// unpublished, mid-batch cut, degrade) run over a RecommenderEngine and
// over ShardedEngines of 1 and 3 shards with the same expectations.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/pst_walk.h"
#include "serve/recommender_engine.h"
#include "serve/sharded_engine.h"
#include "serve_test_util.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::ExpectSameRecommendation;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;

std::shared_ptr<const CompactSnapshot> BuildSnapshot(
    const std::vector<AggregatedSession>& sessions, uint64_t version) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  MvmmOptions options;
  options.default_max_depth = 5;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return oracle::PackExact(*built.value());
}

const ServeOptions kBulk{.lane = QosLane::kBulk};

Deadline Generous() { return Deadline::After(std::chrono::seconds(30)); }

Deadline AlreadyExpired() {
  return Deadline::At(Deadline::Clock::now() - std::chrono::milliseconds(1));
}

/// Version-1 shard snapshots of the base corpus, trained once per shard
/// count.
const std::vector<std::shared_ptr<const CompactSnapshot>>& FleetSnapshots(
    size_t num_shards) {
  static std::map<size_t, std::vector<std::shared_ptr<const CompactSnapshot>>>
      fleets;
  auto& packed = fleets[num_shards];
  if (packed.empty()) {
    ShardedTrainOptions train;
    train.model.default_max_depth = 5;
    train.num_shards = static_cast<uint32_t>(num_shards);
    train.vocabulary_size = kVocabularyBound;
    auto trained = TrainShardedSnapshots(SharedCorpus().base, train);
    SQP_CHECK(trained.ok());
    for (const auto& shard : trained->shards) {
      packed.push_back(oracle::PackExact(*shard));
    }
  }
  return packed;
}

/// Runs `body(engine)` on a fresh engine of every kind — a
/// RecommenderEngine, then ShardedEngines of 1 and 3 shards — built with
/// `options`' lanes and admission knobs, and published with version-1
/// snapshots of the base corpus when `publish` is set.
template <typename Body>
void ForEachEngine(const EngineOptions& options, bool publish, Body body) {
  {
    SCOPED_TRACE("RecommenderEngine");
    RecommenderEngine engine(options);
    if (publish) engine.Publish(BuildSnapshot(SharedCorpus().base, 1));
    body(engine);
  }
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("ShardedEngine with " + std::to_string(shards) + " shards");
    ShardedEngine engine(ShardedEngineOptions{.num_shards = shards,
                                              .num_threads =
                                                  options.num_threads,
                                              .admission = options.admission});
    if (publish) {
      for (size_t s = 0; s < shards; ++s) {
        engine.PublishShard(s, FleetSnapshots(shards)[s]);
      }
    }
    body(engine);
  }
}

/// A lane's QoS counters without the (timing-dependent) latency histogram.
struct LaneCounts {
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t expired_in_queue = 0;
  uint64_t expired_items = 0;
  uint64_t degraded = 0;

  bool operator==(const LaneCounts&) const = default;
};

LaneCounts Counts(const AdmissionStats& stats, QosLane lane) {
  const LaneCounters& c = stats.lane(lane);
  return {c.admitted,         c.shed_queue_full, c.shed_deadline,
          c.expired_in_queue, c.expired_items,   c.degraded};
}

void PrintTo(const LaneCounts& c, std::ostream* os) {
  *os << "{admitted " << c.admitted << ", shed_queue_full "
      << c.shed_queue_full << ", shed_deadline " << c.shed_deadline
      << ", expired_in_queue " << c.expired_in_queue << ", expired_items "
      << c.expired_items << ", degraded " << c.degraded << "}";
}

// ------------------------------------------------- no-overload equivalence

TEST(DeadlineServingTest, EngineQosMatchesLegacyWithoutOverload) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 7);
  RecommenderEngine engine(EngineOptions{.num_threads = 2});
  engine.Publish(snapshot);

  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 300);
  const BatchResult unbounded = engine.RecommendMany(contexts, 5, kBulk);
  const std::vector<Recommendation>& legacy = unbounded.results;
  ASSERT_EQ(unbounded.served_version, 7u);

  // Unbounded deadline (the legacy contract spelled out) and a generous
  // bounded one, on both lanes: same answers, same order, same scores.
  for (const Deadline& deadline : {Deadline::None(), Generous()}) {
    for (const QosLane lane : {QosLane::kInteractive, QosLane::kBulk}) {
      ServeOptions options;
      options.deadline = deadline;
      options.lane = lane;
      const BatchResult batch = engine.RecommendMany(contexts, 5, options);
      ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
      EXPECT_EQ(batch.served, contexts.size());
      EXPECT_EQ(batch.served_version, 7u);
      EXPECT_EQ(batch.effective_top_n, 5u);
      EXPECT_FALSE(batch.degraded);
      ASSERT_EQ(batch.results.size(), contexts.size());
      ASSERT_EQ(batch.statuses.size(), contexts.size());
      for (size_t i = 0; i < contexts.size(); ++i) {
        EXPECT_EQ(batch.statuses[i], StatusCode::kOk);
        ExpectSameRecommendation(legacy[i], batch.results[i]);
      }
    }
  }

  // Single-query parity.
  for (size_t i = 0; i < 50; ++i) {
    ServeOptions options;
    options.deadline = Generous();
    const ServeResult served = engine.Recommend(contexts[i], 5, options);
    EXPECT_EQ(served.status, StatusCode::kOk);
    EXPECT_EQ(served.served_version, 7u);
    EXPECT_FALSE(served.degraded);
    ExpectSameRecommendation(legacy[i], served.recommendation);
  }
}

TEST(DeadlineServingTest, ShardedQosMatchesLegacyWithoutOverload) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  ShardedTrainOptions train;
  train.model.default_max_depth = 5;
  train.num_shards = 4;
  train.vocabulary_size = kVocabularyBound;
  auto trained = TrainShardedSnapshots(corpus, train);
  ASSERT_TRUE(trained.ok());

  ShardedEngine engine(
      ShardedEngineOptions{.num_shards = 4, .num_threads = 2});
  for (size_t s = 0; s < 4; ++s) {
    engine.PublishShard(s, oracle::PackExact(*trained->shards[s]));
  }

  const std::vector<std::vector<QueryId>> owned =
      CollectContexts(corpus, 300);
  std::vector<ContextRef> contexts(owned.begin(), owned.end());
  const std::vector<Recommendation> legacy =
      engine.RecommendMany(owned, 5, kBulk).results;

  for (const Deadline& deadline : {Deadline::None(), Generous()}) {
    ServeOptions options;
    options.deadline = deadline;
    const BatchResult batch = engine.RecommendMany(
        std::span<const ContextRef>(contexts), 5, options);
    ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
    EXPECT_EQ(batch.served, owned.size());
    ASSERT_EQ(batch.results.size(), owned.size());
    for (size_t i = 0; i < owned.size(); ++i) {
      EXPECT_EQ(batch.statuses[i], StatusCode::kOk);
      ExpectSameRecommendation(legacy[i], batch.results[i]);
    }
  }

  for (size_t i = 0; i < 50; ++i) {
    ServeOptions options;
    options.deadline = Generous();
    const ServeResult served = engine.Recommend(contexts[i], 5, options);
    EXPECT_EQ(served.status, StatusCode::kOk);
    ExpectSameRecommendation(legacy[i], served.recommendation);
  }
}

// ----------------------------------------------------------- shed paths

TEST(DeadlineServingTest, EngineShedsRequestsThatArriveExpired) {
  const std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 40);
  ForEachEngine(EngineOptions{.num_threads = 2}, true, [&](auto& engine) {
    ServeOptions options;
    options.deadline = AlreadyExpired();
    const BatchResult batch = engine.RecommendMany(contexts, 5, options);
    EXPECT_EQ(batch.admission.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(batch.served, 0u);
    EXPECT_EQ(batch.effective_top_n, 5u);
    EXPECT_FALSE(batch.degraded);
    EXPECT_EQ(batch.statuses, std::vector<StatusCode>(
                                  contexts.size(),
                                  StatusCode::kDeadlineExceeded));

    const ServeResult single = engine.Recommend(contexts[0], 5, options);
    EXPECT_EQ(single.status, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(single.recommendation.queries.empty());

    // The legacy path is oblivious: same engine, same instant, full
    // answer (a pool-sized bulk batch, admitted through the slot).
    const BatchResult legacy = engine.RecommendMany(contexts, 5, kBulk);
    EXPECT_EQ(legacy.served, contexts.size());

    const AdmissionStats stats = engine.stats().admission;
    EXPECT_EQ(Counts(stats, QosLane::kInteractive),
              (LaneCounts{.shed_deadline = 2}));
    EXPECT_EQ(Counts(stats, QosLane::kBulk), (LaneCounts{.admitted = 1}));
  });
}

// An empty batch is checked for arrival expiry, then answered without
// taking the admission slot or leaving a latency record.
TEST(DeadlineServingTest, EmptyBatchSkipsAdmission) {
  const std::vector<std::vector<QueryId>> none;
  ForEachEngine(EngineOptions{.num_threads = 2}, true, [&](auto& engine) {
    for (const Deadline& deadline : {Deadline::None(), Generous()}) {
      ServeOptions options;
      options.deadline = deadline;
      const BatchResult batch = engine.RecommendMany(none, 5, options);
      EXPECT_TRUE(batch.admission.ok()) << batch.admission.ToString();
      EXPECT_TRUE(batch.results.empty());
      EXPECT_TRUE(batch.statuses.empty());
      EXPECT_EQ(batch.served, 0u);
      EXPECT_EQ(batch.effective_top_n, 5u);
      EXPECT_FALSE(batch.degraded);
    }
    ServeOptions expired;
    expired.deadline = AlreadyExpired();
    EXPECT_EQ(engine.RecommendMany(none, 5, expired).admission.code(),
              StatusCode::kDeadlineExceeded);

    const auto stats = engine.stats();
    EXPECT_EQ(stats.batches_served, 3u);
    EXPECT_EQ(stats.queries_served, 0u);
    EXPECT_EQ(Counts(stats.admission, QosLane::kInteractive),
              (LaneCounts{.shed_deadline = 1}));
    EXPECT_EQ(Counts(stats.admission, QosLane::kBulk), LaneCounts{});
  });
}

// No published snapshot: every item is kUnavailable, and the batch is
// otherwise served like any other — admitted through the slot when
// pool-sized, recorded in its lane either way.
TEST(DeadlineServingTest, UnpublishedEnginesReportUnavailable) {
  const std::vector<std::vector<QueryId>> pool_sized =
      CollectContexts(SharedCorpus().base, 40);
  ForEachEngine(EngineOptions{.num_threads = 2}, false, [&](auto& engine) {
    ServeOptions options;
    options.deadline = Generous();
    const std::vector<QueryId> context = {1, 2, 3};
    const ServeResult single = engine.Recommend(context, 5, options);
    EXPECT_EQ(single.status, StatusCode::kUnavailable);
    EXPECT_FALSE(single.recommendation.covered);

    const BatchResult batch = engine.RecommendMany(
        std::vector<std::vector<QueryId>>{{1}, {2}}, 5, options);
    ASSERT_TRUE(batch.admission.ok());
    EXPECT_EQ(batch.served, 0u);
    EXPECT_EQ(batch.served_version, 0u);
    EXPECT_EQ(batch.effective_top_n, 5u);
    EXPECT_EQ(batch.statuses,
              std::vector<StatusCode>(2, StatusCode::kUnavailable));

    const BatchResult pooled = engine.RecommendMany(pool_sized, 5, kBulk);
    ASSERT_TRUE(pooled.admission.ok());
    EXPECT_EQ(pooled.served, 0u);
    EXPECT_EQ(pooled.statuses,
              std::vector<StatusCode>(pool_sized.size(),
                                      StatusCode::kUnavailable));
    for (const Recommendation& rec : pooled.results) {
      EXPECT_FALSE(rec.covered);
    }

    const AdmissionStats stats = engine.stats().admission;
    EXPECT_EQ(Counts(stats, QosLane::kInteractive),
              (LaneCounts{.admitted = 1}));
    EXPECT_EQ(Counts(stats, QosLane::kBulk), (LaneCounts{.admitted = 1}));
  });
}

TEST(DeadlineServingTest, ShardWithNoSnapshotIsUnavailableOthersServe) {
  const std::vector<AggregatedSession>& corpus = SharedCorpus().base;
  ShardedTrainOptions train;
  train.model.default_max_depth = 5;
  train.num_shards = 4;
  train.vocabulary_size = kVocabularyBound;
  auto trained = TrainShardedSnapshots(corpus, train);
  ASSERT_TRUE(trained.ok());

  ShardedEngine engine(
      ShardedEngineOptions{.num_shards = 4, .num_threads = 2});
  for (size_t s = 1; s < 4; ++s) {
    engine.PublishShard(s, oracle::PackExact(*trained->shards[s]));
  }

  const std::vector<std::vector<QueryId>> owned =
      CollectContexts(corpus, 200);
  std::vector<ContextRef> contexts(owned.begin(), owned.end());
  ServeOptions options;
  options.deadline = Generous();
  const BatchResult batch = engine.RecommendMany(
      std::span<const ContextRef>(contexts), 5, options);
  ASSERT_TRUE(batch.admission.ok());
  ASSERT_EQ(batch.statuses.size(), owned.size());

  size_t unavailable = 0;
  for (size_t i = 0; i < owned.size(); ++i) {
    if (engine.OwningShard(contexts[i]) == 0) {
      EXPECT_EQ(batch.statuses[i], StatusCode::kUnavailable);
      EXPECT_FALSE(batch.results[i].covered);
      ++unavailable;
    } else {
      EXPECT_EQ(batch.statuses[i], StatusCode::kOk);
    }
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_EQ(batch.served, owned.size() - unavailable);

  // Single-query routing to the dead shard reports the same.
  for (size_t i = 0; i < owned.size(); ++i) {
    if (engine.OwningShard(contexts[i]) == 0) {
      const ServeResult served = engine.Recommend(contexts[i], 5, options);
      EXPECT_EQ(served.status, StatusCode::kUnavailable);
      break;
    }
  }
}

// ------------------------------------------------------ mid-batch expiry

TEST(DeadlineServingTest, BatchIsCutMidFlightWhenTheDeadlineExpires) {
  // ~240k items: far more work than 25 ms even on the fastest box, so the
  // deadline lands mid-batch. Build the ContextRef view *before* starting
  // the clock — on a loaded CI box the O(n) setup alone can otherwise eat
  // the whole budget and the request is shed on arrival instead of cut.
  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 4000);
  std::vector<std::vector<QueryId>> contexts;
  contexts.reserve(seed.size() * 60);
  for (int rep = 0; rep < 60; ++rep) {
    contexts.insert(contexts.end(), seed.begin(), seed.end());
  }
  std::vector<ContextRef> refs;
  refs.reserve(contexts.size());
  for (const auto& context : contexts) refs.emplace_back(context);

  ForEachEngine(EngineOptions{.num_threads = 1}, true, [&](auto& engine) {
    ServeOptions options;
    options.deadline = Deadline::After(std::chrono::milliseconds(25));
    const BatchResult batch = engine.RecommendMany(
        std::span<const ContextRef>(refs), 5, options);
    ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
    EXPECT_GT(batch.served, 0u);               // made real progress...
    EXPECT_LT(batch.served, contexts.size());  // ...but not the whole batch
    EXPECT_EQ(batch.effective_top_n, 5u);
    ASSERT_EQ(batch.statuses.size(), contexts.size());
    // The cut is one served prefix, then one expired suffix.
    for (size_t i = 0; i < contexts.size(); ++i) {
      ASSERT_EQ(batch.statuses[i], i < batch.served
                                       ? StatusCode::kOk
                                       : StatusCode::kDeadlineExceeded)
          << "item " << i;
    }

    // Served prefix is exact; expired suffix is explicit and empty.
    const std::vector<Recommendation> legacy =
        engine.RecommendMany(seed, 5, kBulk).results;
    for (size_t i = 0; i < batch.served && i < 64; ++i) {
      ExpectSameRecommendation(legacy[i % seed.size()], batch.results[i]);
    }
    for (size_t i = batch.served; i < contexts.size(); ++i) {
      ASSERT_TRUE(batch.results[i].queries.empty()) << "item " << i;
    }

    const AdmissionStats stats = engine.stats().admission;
    EXPECT_EQ(Counts(stats, QosLane::kInteractive),
              (LaneCounts{.admitted = 1,
                          .expired_items = contexts.size() - batch.served}));
  });
}

// ------------------------------------------- convoy fairness (regression)

// The pre-QoS engine serialized batches on a plain mutex: a convoy of
// large batches could starve small ones indefinitely. Now every caller
// either holds the slot or waits in a bounded lane; all of them finish,
// and interactive batches are never shed by deadline-free bulk traffic.
TEST(DeadlineServingTest, ConcurrentBatchCallersAllMakeProgress) {
  const auto snapshot = BuildSnapshot(SharedCorpus().base, 1);
  RecommenderEngine engine(EngineOptions{.num_threads = 4});
  engine.Publish(snapshot);

  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 2048);
  const std::vector<std::vector<QueryId>> small(seed.begin(),
                                                seed.begin() + 40);
  const std::vector<Recommendation> expected_small =
      engine.RecommendMany(small, 5, kBulk).results;

  std::atomic<size_t> bulk_done{0};
  std::atomic<size_t> interactive_done{0};
  std::atomic<bool> interactive_clean{true};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        const std::vector<Recommendation> got =
            engine.RecommendMany(seed, 5, kBulk).results;
        if (got.size() == seed.size()) bulk_done.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 15; ++round) {
        ServeOptions options;
        options.deadline = Generous();
        options.lane = QosLane::kInteractive;
        const BatchResult got = engine.RecommendMany(small, 5, options);
        if (!got.admission.ok() || got.served != small.size()) {
          interactive_clean.store(false);
          continue;
        }
        for (size_t i = 0; i < small.size(); ++i) {
          if (!serve_test::SameRecommendation(expected_small[i],
                                              got.results[i])) {
            interactive_clean.store(false);
          }
        }
        interactive_done.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(bulk_done.load(), 9u);
  EXPECT_EQ(interactive_done.load(), 45u);
  EXPECT_TRUE(interactive_clean.load());
}

// -------------------------------------------------- degrade under pressure

TEST(DeadlineServingTest, BoundedRequestsDegradeTopNUnderPressure) {
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.admission.interactive_capacity = 1;
  engine_options.admission.bulk_capacity = 1;
  // Threshold = ceil(0.5 * 2) = 1 waiting job triggers the ladder.
  engine_options.admission.degrade_pressure = 0.5;

  const std::vector<std::vector<QueryId>> seed =
      CollectContexts(SharedCorpus().base, 4000);
  std::vector<std::vector<QueryId>> huge;
  huge.reserve(seed.size() * 25);
  for (int rep = 0; rep < 25; ++rep) {
    huge.insert(huge.end(), seed.begin(), seed.end());
  }
  // Fewer contexts than kMinBatchFanout: the probe runs inline, never
  // queues, so it can't deadlock no matter what the slot is doing.
  const std::vector<std::vector<QueryId>> small(seed.begin(),
                                                seed.begin() + 4);
  static_assert(4 < kMinBatchFanout);

  ForEachEngine(engine_options, true, [&](auto& engine) {
    // A holds the batch slot for the duration of a ~100k-item batch; B
    // queues behind it (deadline-free: it just waits). While B waits, a
    // bounded request must see the degrade ladder.
    std::atomic<int> giants_done{0};
    std::thread holder([&] {
      engine.RecommendMany(huge, 10, kBulk);
      giants_done.fetch_add(1);
    });
    std::thread waiter([&] {
      engine.RecommendMany(huge, 10, kBulk);
      giants_done.fetch_add(1);
    });

    bool saw_degraded = false;
    while (!saw_degraded && giants_done.load() < 2) {
      ServeOptions options;
      options.deadline = Generous();
      const BatchResult probe = engine.RecommendMany(small, 10, options);
      if (probe.degraded) {
        EXPECT_TRUE(probe.admission.ok());
        EXPECT_EQ(probe.effective_top_n, 5u);
        EXPECT_EQ(probe.served, small.size());
        for (size_t i = 0; i < small.size(); ++i) {
          EXPECT_EQ(probe.statuses[i], StatusCode::kOk);
          EXPECT_LE(probe.results[i].queries.size(), 5u);
        }
        saw_degraded = true;
      }
    }
    holder.join();
    waiter.join();

    EXPECT_TRUE(saw_degraded)
        << "no degraded probe observed while a batch was queued";
    const AdmissionStats stats = engine.stats().admission;
    EXPECT_GT(stats.lane(QosLane::kInteractive).degraded, 0u);
    EXPECT_EQ(Counts(stats, QosLane::kBulk), (LaneCounts{.admitted = 2}));

    // Pressure gone: the same probe serves the full top_n again.
    ServeOptions options;
    options.deadline = Generous();
    const BatchResult after = engine.RecommendMany(small, 10, options);
    EXPECT_FALSE(after.degraded);
    EXPECT_EQ(after.effective_top_n, 10u);
  });
}

}  // namespace
}  // namespace sqp
