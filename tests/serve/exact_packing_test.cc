// The exact packing (CompactOptions{.top_k = 0}) is what every serving path
// publishes, so it must answer exactly as the Pst reference walk over the
// trained model (tests/oracle/) — ids, score bits, matched_length and
// covered — through the engine, through a SnapshotIo::Map replica and
// through the slim predictor. The corpora are the other equivalence
// suites' (synthetic two-period, wide ids, wide masks, seeded golden-style,
// block-shift) plus one whose aggregated session of frequency 70000 pushes
// non-root counts past 16 bits, where the packing widens its count codes to
// u32 (blob format version 2) instead of shifting them.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/snapshot_io.h"
#include "oracle/pst_walk.h"
#include "serve/recommender_engine.h"
#include "serve_test_util.h"
#include "sqp/slim.h"
#include "util/byte_io.h"

namespace sqp {
namespace {

using serve_test::CollectContexts;
using serve_test::SharedCorpus;

constexpr size_t kVocabularyBound = 1 << 20;
constexpr size_t kTopN = 10;

std::shared_ptr<const ModelSnapshot> Train(
    const std::vector<AggregatedSession>& sessions, MvmmOptions options) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = kVocabularyBound;
  auto built = ModelSnapshot::Build(data, options, /*version=*/3);
  SQP_CHECK(built.ok());
  return built.value();
}

MvmmOptions DepthOptions(size_t max_depth) {
  MvmmOptions options;
  options.default_max_depth = max_depth;
  return options;
}

/// Deterministic skewed corpus: sessions of length 2..6 over `vocabulary`
/// ids, frequencies 1..8 (the seeded recipe of the snapshot_io suite).
std::vector<AggregatedSession> SeededCorpus(uint64_t seed, size_t sessions,
                                            QueryId vocabulary) {
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<AggregatedSession> out;
  for (size_t s = 0; s < sessions; ++s) {
    AggregatedSession session;
    const size_t length = 2 + next() % 5;
    for (size_t q = 0; q < length; ++q) {
      const QueryId a = static_cast<QueryId>(next() % vocabulary);
      const QueryId b = static_cast<QueryId>(next() % vocabulary);
      session.queries.push_back(std::min(a, b));
    }
    session.frequency = 1 + next() % 8;
    out.push_back(std::move(session));
  }
  return out;
}

/// Every prefix of every session (the contexts the walk can match), capped.
std::vector<std::vector<QueryId>> Prefixes(
    const std::vector<AggregatedSession>& sessions, size_t limit) {
  std::vector<std::vector<QueryId>> contexts;
  for (const AggregatedSession& session : sessions) {
    for (size_t len = 1; len <= session.queries.size(); ++len) {
      contexts.emplace_back(session.queries.begin(),
                            session.queries.begin() +
                                static_cast<ptrdiff_t>(len));
      if (contexts.size() >= limit) return contexts;
    }
  }
  return contexts;
}

/// The seeded corpus plus one aggregated session of frequency 70000: its
/// transitions give non-root nodes counts beyond 65535.
std::vector<AggregatedSession> HeavyCorpus() {
  std::vector<AggregatedSession> sessions = SeededCorpus(91, 400, 80);
  sessions.push_back({{3, 5, 7, 5}, 70000});
  return sessions;
}

/// Exact equality of two answers, score bits included.
void ExpectBitIdentical(const Recommendation& want, const Recommendation& got,
                        const char* path) {
  ASSERT_EQ(want.covered, got.covered) << path;
  ASSERT_EQ(want.matched_length, got.matched_length) << path;
  ASSERT_EQ(want.queries.size(), got.queries.size()) << path;
  for (size_t i = 0; i < want.queries.size(); ++i) {
    EXPECT_EQ(want.queries[i].query, got.queries[i].query)
        << path << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.queries[i].score),
              std::bit_cast<uint64_t>(got.queries[i].score))
        << path << " rank " << i;
  }
}

std::string TempBlobPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("sqp_exact_" + std::to_string(::getpid()) + "_" + name + ".blob"))
      .string();
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// Serves `contexts` off the exact packing of `model` through the engine,
/// a mapped replica and the slim predictor, each against the oracle.
/// Returns the packing for further checks.
std::shared_ptr<const CompactSnapshot> ExpectServedExactly(
    const ModelSnapshot& model,
    const std::vector<std::vector<QueryId>>& contexts,
    const std::string& name) {
  const std::shared_ptr<const CompactSnapshot> packed =
      oracle::PackExact(model);
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  engine.Publish(packed);

  const std::string path = TempBlobPath(name);
  EXPECT_TRUE(SnapshotIo::Save(*packed, path).ok());
  const auto mapped = SnapshotIo::Map(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::vector<uint8_t> blob = ReadFileBytes(path);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (!mapped.ok()) return packed;
  sqp_slim_predictor* slim = nullptr;
  EXPECT_EQ(sqp_slim_create_from_buffer(blob.data(), blob.size(), &slim),
            SQP_STATUS_OK);
  if (slim == nullptr) return packed;

  SnapshotScratch scratch;
  size_t covered = 0;
  uint32_t slim_queries[kTopN];
  double slim_scores[kTopN];
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation want = oracle::Recommend(model, context, kTopN);
    covered += want.covered ? 1 : 0;
    ExpectBitIdentical(
        want, engine.Recommend(context, kTopN, ServeOptions{}).recommendation,
        "engine");
    ExpectBitIdentical(want, (*mapped)->Recommend(context, kTopN, &scratch),
                       "mapped");
    EXPECT_EQ(packed->Covers(context), oracle::Covers(model, context));

    size_t count = 0;
    size_t matched = 0;
    const sqp_status_t status =
        sqp_slim_recommend(slim, context.data(), context.size(), kTopN,
                           slim_queries, slim_scores, &count, &matched);
    Recommendation via_slim;
    via_slim.covered = status == SQP_STATUS_OK;
    via_slim.matched_length = via_slim.covered ? matched : 0;
    for (size_t i = 0; i < count; ++i) {
      via_slim.queries.push_back(ScoredQuery{slim_queries[i], slim_scores[i]});
    }
    ExpectBitIdentical(want, via_slim, "slim");
  }
  sqp_slim_destroy(slim);
  EXPECT_GT(covered, 0u) << name;
  return packed;
}

TEST(ExactPackingTest, SyntheticCorpusMatchesOracle) {
  const auto model = Train(SharedCorpus().base, DepthOptions(5));
  std::vector<std::vector<QueryId>> contexts =
      CollectContexts(SharedCorpus().base, 600);
  const auto drifted = CollectContexts(SharedCorpus().drifted, 200);
  contexts.insert(contexts.end(), drifted.begin(), drifted.end());
  EXPECT_FALSE(ExpectServedExactly(*model, contexts, "synthetic")->wide_codes());
}

TEST(ExactPackingTest, WideIdsAndWideMasksMatchOracle) {
  const QueryId base = 70000;  // > 65535: wide id pools
  const std::vector<AggregatedSession> sessions = {
      {{base, base + 1, base + 2}, 5},
      {{base + 1, base + 3}, 3},
      {{base, base + 1, base + 3}, 2},
      {{base + 2, base + 1, base + 2}, 4},
      {{base + 1, base + 2, base + 4}, 6},
      {{base + 3, base, base + 1}, 1}};
  std::vector<std::vector<QueryId>> contexts = Prefixes(sessions, 100);
  contexts.push_back({base + 500});  // unseen id
  ExpectServedExactly(*Train(sessions, DepthOptions(5)), contexts,
                      "wide_ids");

  MvmmOptions many;  // 18 components: 64-bit masks
  for (size_t depth = 1; depth <= 3; ++depth) {
    for (double epsilon : {0.0, 0.01, 0.02, 0.03, 0.04, 0.05}) {
      many.components.push_back(
          VmmOptions{.epsilon = epsilon, .max_depth = depth});
    }
  }
  ExpectServedExactly(*Train(sessions, many), contexts, "wide_masks");
}

TEST(ExactPackingTest, SeededCorporaMatchOracle) {
  for (const uint64_t seed : {uint64_t{77}, uint64_t{5}, uint64_t{6}}) {
    const std::vector<AggregatedSession> sessions =
        SeededCorpus(seed, 500, 100);
    ExpectServedExactly(*Train(sessions, DepthOptions(4)),
                        Prefixes(sessions, 600),
                        "seeded" + std::to_string(seed));
  }
}

TEST(ExactPackingTest, CountsBeyond16BitsWidenCodesAndStayExact) {
  // The block-shift corpus of the compact suite: at top_k = 0 the counts
  // are no longer shifted; the codes widen to u32 instead.
  const std::vector<AggregatedSession> block = {
      {{1, 2}, 200001}, {{1, 3}, 70003}, {{1, 4}, 5}, {{1, 5}, 1}};
  EXPECT_TRUE(ExpectServedExactly(*Train(block, DepthOptions(3)),
                                  Prefixes(block, 100), "block")
                  ->wide_codes());

  const std::vector<AggregatedSession> heavy = HeavyCorpus();
  const auto model = Train(heavy, DepthOptions(4));
  uint64_t max_non_root = 0;
  for (size_t id = 1; id < model->pst()->nodes().size(); ++id) {
    for (const NextQueryCount& nc : model->pst()->nodes()[id].nexts) {
      max_non_root = std::max(max_non_root, nc.count);
    }
  }
  ASSERT_GT(max_non_root, 65535u);  // the premise: 16-bit codes are lossy
  std::vector<std::vector<QueryId>> contexts = Prefixes(heavy, 800);
  contexts.push_back({3, 5, 7, 5});
  EXPECT_TRUE(ExpectServedExactly(*model, contexts, "heavy")->wide_codes());

  // The footprint packing keeps today's 16-bit block shift.
  EXPECT_FALSE(
      CompactSnapshot::FromSnapshot(*model, CompactOptions{.top_k = 16})
          ->wide_codes());
}

TEST(ExactPackingTest, WideCodeBlobsAreVersionTwoAndRejectMismatchedHeaders) {
  const std::vector<AggregatedSession> heavy = HeavyCorpus();
  const auto model = Train(heavy, DepthOptions(4));
  const std::string path = TempBlobPath("version");

  // u16-code blobs stay version 1; u32-code blobs are version 2.
  ASSERT_TRUE(SnapshotIo::Save(
                  *CompactSnapshot::FromSnapshot(
                      *model, CompactOptions{.top_k = 16}),
                  path)
                  .ok());
  EXPECT_EQ(LoadLE32(ReadFileBytes(path).data() + 8), kSnapshotFormatVersion);
  ASSERT_TRUE(SnapshotIo::Save(*oracle::PackExact(*model), path).ok());
  std::vector<uint8_t> blob = ReadFileBytes(path);
  ASSERT_GE(blob.size(), 64u);
  EXPECT_EQ(LoadLE32(blob.data() + 8), kSnapshotFormatVersionWideCodes);

  // A version-1 header over u32 codes is refused with a typed error by
  // every reader (a version-1-only reader refuses the version-2 header
  // itself as a version mismatch).
  StoreLE32(blob.data() + 8, kSnapshotFormatVersion);
  StoreLE32(blob.data() + 60, Crc32(blob.data(), 60));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  const auto loaded = SnapshotIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(SnapshotIo::Map(path).ok());
  sqp_slim_predictor* slim = nullptr;
  EXPECT_EQ(sqp_slim_create_from_buffer(blob.data(), blob.size(), &slim),
            SQP_STATUS_INVALID_ARGUMENT);
  EXPECT_EQ(slim, nullptr);

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace sqp
