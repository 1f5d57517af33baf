// Persistence suite for the compact snapshot blob (core/snapshot_io): a
// blob restored by copy (Load) or zero-copy (Map) must serve bit-identical
// recommendations to the in-memory CompactSnapshot it was written from,
// property-tested over seeded corpora; corrupt and truncated input must be
// rejected with a Status error — never UB (run under the SQP_ASAN build in
// CI); and the committed golden blob pins the on-disk format as a
// compatibility contract.

#include "core/snapshot_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "util/byte_io.h"

namespace sqp {
namespace {

// ------------------------------------------------------------ fixtures

/// Deterministic pseudo-random corpus: sessions of length 2..6 over a
/// bounded id space, frequencies 1..8. Pure integer arithmetic — the same
/// seed yields the same corpus on any platform, which the golden-blob
/// contract below depends on.
std::vector<AggregatedSession> SeededCorpus(uint64_t seed,
                                            size_t num_sessions,
                                            QueryId vocabulary,
                                            QueryId id_offset = 0) {
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<AggregatedSession> sessions;
  sessions.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    AggregatedSession session;
    const size_t length = 2 + next() % 5;
    session.queries.reserve(length);
    for (size_t q = 0; q < length; ++q) {
      // A skewed draw so popular continuations emerge (min of two draws).
      const QueryId a = static_cast<QueryId>(next() % vocabulary);
      const QueryId b = static_cast<QueryId>(next() % vocabulary);
      session.queries.push_back(id_offset + std::min(a, b));
    }
    session.frequency = 1 + next() % 8;
    sessions.push_back(std::move(session));
  }
  return sessions;
}

std::shared_ptr<const ModelSnapshot> BuildFull(
    const std::vector<AggregatedSession>& sessions, uint64_t version,
    size_t vocabulary_bound, size_t max_depth = 4) {
  TrainingData data;
  data.sessions = &sessions;
  data.vocabulary_size = vocabulary_bound;
  MvmmOptions options;
  options.default_max_depth = max_depth;
  auto built = ModelSnapshot::Build(data, options, version);
  SQP_CHECK(built.ok());
  return built.value();
}

/// Session prefixes used as online contexts (covered and uncovered mixes).
std::vector<std::vector<QueryId>> PrefixContexts(
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

/// Scratch file path under the system temp dir (process-unique, so
/// concurrent ctest runs from different build trees cannot collide);
/// removed by the guard.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sqp_snapshot_io_" + std::to_string(::getpid()) + "_" +
                name))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void ExpectBitIdentical(const ServingSnapshot& expected,
                        const ServingSnapshot& actual,
                        const std::vector<std::vector<QueryId>>& contexts,
                        size_t top_n) {
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : contexts) {
    const Recommendation want = expected.Recommend(context, top_n, &scratch);
    const Recommendation got = actual.Recommend(context, top_n, &scratch);
    ASSERT_EQ(want.covered, got.covered);
    ASSERT_EQ(want.matched_length, got.matched_length);
    ASSERT_EQ(want.queries.size(), got.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query) << "rank " << i;
      EXPECT_DOUBLE_EQ(want.queries[i].score, got.queries[i].score)
          << "rank " << i;
    }
    EXPECT_EQ(expected.Covers(context), actual.Covers(context));
  }
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes(std::filesystem::file_size(path));
  std::ifstream in(path, std::ios::binary);
  SQP_CHECK(in.read(reinterpret_cast<char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size())).good());
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  SQP_CHECK(out.good());
}

// ---------------------------------------------------- round-trip suite

TEST(SnapshotIoTest, SaveLoadMapServeBitIdenticallyOverSeededCorpora) {
  // The acceptance property: for every seeded corpus, a replica booted
  // from the blob (either restore path) serves bit-identical top-10 lists
  // to the in-memory compact snapshot the blob was written from.
  for (const uint64_t seed : {11ull, 23ull, 47ull}) {
    const std::vector<AggregatedSession> corpus =
        SeededCorpus(seed, 600, /*vocabulary=*/120);
    const auto full = BuildFull(corpus, /*version=*/seed, 1 << 10);
    const auto compact =
        CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});

    TempFile file("roundtrip_" + std::to_string(seed) + ".blob");
    ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"))
        << "atomic save must not leave its tmp file behind";

    const auto loaded = SnapshotIo::Load(file.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    EXPECT_EQ((*loaded)->version(), compact->version());
    EXPECT_EQ((*mapped)->version(), compact->version());
    EXPECT_EQ((*loaded)->num_nodes(), compact->num_nodes());
    EXPECT_EQ((*mapped)->num_nodes(), compact->num_nodes());
    EXPECT_EQ((*loaded)->num_entries(), compact->num_entries());
    EXPECT_EQ((*mapped)->num_entries(), compact->num_entries());
    EXPECT_EQ((*loaded)->sigmas(), compact->sigmas());
    EXPECT_EQ((*mapped)->sigmas(), compact->sigmas());
    EXPECT_EQ((*mapped)->mapped_bytes(),
              std::filesystem::file_size(file.path()));

    const std::vector<std::vector<QueryId>> contexts =
        PrefixContexts(corpus, 400);
    ExpectBitIdentical(*compact, **loaded, contexts, 10);
    ExpectBitIdentical(*compact, **mapped, contexts, 10);
  }
}

TEST(SnapshotIoTest, WideIdPoolsRoundTrip) {
  // Query ids beyond 16 bits force the wide pools — the branch with
  // 4-byte ids throughout, including the root index.
  const std::vector<AggregatedSession> corpus =
      SeededCorpus(5, 200, /*vocabulary=*/60, /*id_offset=*/70000);
  const auto full = BuildFull(corpus, 3, 1 << 18);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 0});

  TempFile file("wide.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const auto loaded = SnapshotIo::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<std::vector<QueryId>> contexts =
      PrefixContexts(corpus, 300);
  ExpectBitIdentical(*compact, **loaded, contexts, 5);
  ExpectBitIdentical(*compact, **mapped, contexts, 5);
}

TEST(SnapshotIoTest, MinimalModelsRoundTrip) {
  // Edge cases of the mmap loader: a root-only tree (sessions with no
  // transitions => no states, nothing to serve) and a single-state tree.
  {
    const std::vector<AggregatedSession> lonely = {{{QueryId{3}}, 5},
                                                   {{QueryId{7}}, 2}};
    const auto full = BuildFull(lonely, 1, 16);
    const auto compact = CompactSnapshot::FromSnapshot(*full);
    ASSERT_EQ(compact->num_nodes(), 1u);  // just the root
    ASSERT_EQ(compact->num_entries(), 0u);

    TempFile file("rootonly.blob");
    ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->num_nodes(), 1u);
    SnapshotScratch scratch;
    const std::vector<QueryId> context = {QueryId{3}};
    EXPECT_FALSE((*mapped)->Recommend(context, 5, &scratch).covered);
    EXPECT_FALSE((*mapped)->Covers(context));
    const auto loaded = SnapshotIo::Load(file.path());
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE((*loaded)->Covers(context));
  }
  {
    const std::vector<AggregatedSession> pair = {{{QueryId{1}, QueryId{2}}, 4}};
    const auto full = BuildFull(pair, 1, 16);
    const auto compact = CompactSnapshot::FromSnapshot(*full);
    TempFile file("single.blob");
    ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const std::vector<std::vector<QueryId>> contexts = {{QueryId{1}},
                                                        {QueryId{2}}};
    ExpectBitIdentical(*compact, **mapped, contexts, 5);
  }
}

TEST(SnapshotIoTest, BlobCarriesItsOwnCorpusVersion) {
  // A blob written at corpus generation 42 must come back as generation 42
  // wherever it is loaded — the version is provenance, not interpreted.
  const std::vector<AggregatedSession> corpus = SeededCorpus(9, 200, 80);
  const auto full = BuildFull(corpus, /*version=*/42, 1 << 10);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("version.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());

  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ((*mapped)->version(), 42u);

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  ASSERT_TRUE(engine.LoadAndPublish(file.path()).ok());
  EXPECT_EQ(engine.current_version(), 42u);
}

TEST(SnapshotIoTest, SkippingChecksumsStillServesIdentically) {
  const std::vector<AggregatedSession> corpus = SeededCorpus(13, 300, 90);
  const auto full = BuildFull(corpus, 1, 1 << 10);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("nocrc.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const auto mapped =
      SnapshotIo::Map(file.path(), {.verify_checksums = false});
  ASSERT_TRUE(mapped.ok());
  ExpectBitIdentical(*compact, **mapped, PrefixContexts(corpus, 200), 10);
}

TEST(SnapshotIoTest, HugepageOptionsServeIdenticallyWhateverTheBacking) {
  // The hugepage knobs only change how the mapping's memory is backed —
  // THP advice, an explicit hugetlb copy, or neither — never the served
  // bytes. Every mode (including silent fallback when the kernel refuses,
  // e.g. an unprovisioned hugetlb pool) must answer bit-identically.
  const std::vector<AggregatedSession> corpus = SeededCorpus(29, 300, 90);
  const auto full = BuildFull(corpus, 1, 1 << 10);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("hugepage.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const std::vector<std::vector<QueryId>> contexts =
      PrefixContexts(corpus, 200);

  const auto plain =
      SnapshotIo::Map(file.path(), {.hugepages = false});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->hugepage_mode(), HugepageMode::kNone);
  ExpectBitIdentical(*compact, **plain, contexts, 10);

  const auto advised = SnapshotIo::Map(file.path());  // default on
  ASSERT_TRUE(advised.ok());
  EXPECT_NE((*advised)->hugepage_mode(), HugepageMode::kHugetlb);
  ExpectBitIdentical(*compact, **advised, contexts, 10);

  const auto hugetlb =
      SnapshotIo::Map(file.path(), {.hugetlb = true});
  ASSERT_TRUE(hugetlb.ok());  // kHugetlb, or a fallback mode if the pool
                              // is unprovisioned — both must serve
  ExpectBitIdentical(*compact, **hugetlb, contexts, 10);
}

// ---------------------------------------------------- corruption suite

TEST(SnapshotIoTest, CorruptBytesAreRejectedEverywhere) {
  // Flip single bytes across the header, the section table and every
  // section payload: both restore paths must return an error (padding
  // bytes between sections carry no data and are exempt, so the sweep
  // walks the checksummed regions only).
  const std::vector<AggregatedSession> corpus = SeededCorpus(3, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("corrupt.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const std::vector<uint8_t> blob = ReadAll(file.path());

  // Covered byte ranges: header, table, and each section payload (decoded
  // from the table we just wrote).
  std::vector<std::pair<size_t, size_t>> regions = {{0, 64}};
  const uint32_t section_count = LoadLE32(blob.data() + 12);
  regions.emplace_back(64, 64 + section_count * 24);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* row = blob.data() + 64 + i * 24;
    const uint64_t offset = LoadLE64(row + 8);
    const uint64_t size = LoadLE64(row + 16);
    if (size > 0) {
      regions.emplace_back(static_cast<size_t>(offset),
                           static_cast<size_t>(offset + size));
    }
  }

  size_t flipped = 0;
  for (const auto& [begin, end] : regions) {
    for (size_t at = begin; at < end; at += 97) {  // stride keeps it fast
      std::vector<uint8_t> mutated = blob;
      mutated[at] ^= 0x5A;
      WriteAll(file.path(), mutated);
      EXPECT_FALSE(SnapshotIo::Load(file.path()).ok())
          << "byte " << at << " flip not detected by Load";
      EXPECT_FALSE(SnapshotIo::Map(file.path()).ok())
          << "byte " << at << " flip not detected by Map";
      ++flipped;
    }
  }
  EXPECT_GT(flipped, 20u);
}

TEST(SnapshotIoTest, TruncatedBlobsAreRejected) {
  const std::vector<AggregatedSession> corpus = SeededCorpus(4, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  TempFile file("truncated.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  const std::vector<uint8_t> blob = ReadAll(file.path());

  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{8}, size_t{63}, size_t{64},
        size_t{100}, blob.size() / 2, blob.size() - 1}) {
    std::vector<uint8_t> shorter(blob.begin(),
                                 blob.begin() + static_cast<ptrdiff_t>(keep));
    WriteAll(file.path(), shorter);
    EXPECT_FALSE(SnapshotIo::Load(file.path()).ok()) << "kept " << keep;
    EXPECT_FALSE(SnapshotIo::Map(file.path()).ok()) << "kept " << keep;
  }

  // Trailing garbage is corruption too (the header pins the exact size).
  std::vector<uint8_t> longer = blob;
  longer.push_back(0xFF);
  WriteAll(file.path(), longer);
  EXPECT_FALSE(SnapshotIo::Load(file.path()).ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path()).ok());

  EXPECT_FALSE(SnapshotIo::Load(file.path() + ".does_not_exist").ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path() + ".does_not_exist").ok());
}

TEST(SnapshotIoTest, StructuralValidationCatchesBadIdsEvenWithoutChecksums) {
  // With checksum verification off, the structural pass must still refuse
  // a blob whose edge pool points outside the node table — the invariant
  // the serving walk's memory-safety rests on.
  const std::vector<AggregatedSession> corpus = SeededCorpus(6, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  ASSERT_GT(compact->num_edges(), 0u);
  TempFile file("badid.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  std::vector<uint8_t> blob = ReadAll(file.path());

  // Locate the edge_child section (id 14) and point its first edge at a
  // node id far past the table.
  const uint32_t section_count = LoadLE32(blob.data() + 12);
  for (uint32_t i = 0; i < section_count; ++i) {
    uint8_t* row = blob.data() + 64 + i * 24;
    if (LoadLE32(row) == 14) {
      const uint64_t offset = LoadLE64(row + 8);
      StoreLE16(blob.data() + offset, 0xFFFF);
      break;
    }
  }
  WriteAll(file.path(), blob);
  const SnapshotLoadOptions no_verify{.verify_checksums = false};
  EXPECT_FALSE(SnapshotIo::Load(file.path(), no_verify).ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path(), no_verify).ok());
}

TEST(SnapshotIoTest, StructuralValidationCatchesSpikedCsrOffset) {
  // A CSR offset array whose *intermediate* value spikes far past the
  // edge pool while start/terminal values stay valid: the validator must
  // reject it up front without ever indexing the pool at the spiked
  // offset (run under ASan in CI — an out-of-bounds probe would trip).
  const std::vector<AggregatedSession> corpus = SeededCorpus(7, 150, 60);
  const auto full = BuildFull(corpus, 1, 1 << 10, /*max_depth=*/3);
  const auto compact = CompactSnapshot::FromSnapshot(*full);
  ASSERT_GT(compact->num_nodes(), 2u);
  TempFile file("spiked.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());
  std::vector<uint8_t> blob = ReadAll(file.path());

  // Locate the child_begin section (id 5) and spike the offset of node 1.
  const uint32_t section_count = LoadLE32(blob.data() + 12);
  for (uint32_t i = 0; i < section_count; ++i) {
    uint8_t* row = blob.data() + 64 + i * 24;
    if (LoadLE32(row) == 5) {
      const uint64_t offset = LoadLE64(row + 8);
      StoreLE32(blob.data() + offset + 4, 0x00F00000u);
      break;
    }
  }
  WriteAll(file.path(), blob);
  const SnapshotLoadOptions no_verify{.verify_checksums = false};
  EXPECT_FALSE(SnapshotIo::Load(file.path(), no_verify).ok());
  EXPECT_FALSE(SnapshotIo::Map(file.path(), no_verify).ok());
}

// ------------------------------------------------- serving-stack suite

TEST(SnapshotIoTest, EngineColdBootsFromBlobAndKeepsServingOnBadReload) {
  const std::vector<AggregatedSession> corpus = SeededCorpus(8, 400, 100);
  const auto full = BuildFull(corpus, 5, 1 << 10);
  const auto compact =
      CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
  TempFile file("engine.blob");
  ASSERT_TRUE(SnapshotIo::Save(*compact, file.path()).ok());

  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  ASSERT_TRUE(engine.LoadAndPublish(file.path()).ok());
  EXPECT_EQ(engine.current_version(), 5u);

  // The cold-booted replica answers exactly like the in-memory compact.
  SnapshotScratch scratch;
  for (const std::vector<QueryId>& context : PrefixContexts(corpus, 120)) {
    const Recommendation want = compact->Recommend(context, 10, &scratch);
    const Recommendation got =
        engine.Recommend(context, 10, ServeOptions{}).recommendation;
    ASSERT_EQ(want.covered, got.covered);
    ASSERT_EQ(want.queries.size(), got.queries.size());
    for (size_t i = 0; i < want.queries.size(); ++i) {
      EXPECT_EQ(want.queries[i].query, got.queries[i].query);
      EXPECT_DOUBLE_EQ(want.queries[i].score, got.queries[i].score);
    }
  }

  // A failed reload (corrupt file) must leave the current snapshot live.
  std::vector<uint8_t> blob = ReadAll(file.path());
  blob[blob.size() / 2] ^= 0xFF;
  WriteAll(file.path(), blob);
  const std::shared_ptr<const ServingSnapshot> before =
      engine.CurrentSnapshot();
  EXPECT_FALSE(engine.LoadAndPublish(file.path()).ok());
  EXPECT_EQ(engine.CurrentSnapshot().get(), before.get());
  EXPECT_EQ(engine.current_version(), 5u);
}

TEST(SnapshotIoTest, RetrainerPersistsEveryPublishedRebuild) {
  const std::vector<AggregatedSession> base = SeededCorpus(20, 400, 100);
  const std::vector<AggregatedSession> fresh = SeededCorpus(21, 150, 100);

  TempFile file("retrainer.blob");
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options;
  options.model.default_max_depth = 4;
  options.vocabulary_size = 1 << 10;
  options.publish_compact = true;
  options.compact.top_k = 10;
  options.persist_path = file.path();
  Retrainer retrainer(&engine, options);
  ASSERT_TRUE(retrainer.Bootstrap(base).ok());

  // Generation 1 is on disk, loadable, and identical to what was
  // published.
  {
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->version(), 1u);
    const auto published = std::dynamic_pointer_cast<const CompactSnapshot>(
        engine.CurrentSnapshot());
    ASSERT_NE(published, nullptr);
    ExpectBitIdentical(*published, **mapped, PrefixContexts(base, 150), 10);
  }

  // A retrain cycle rewrites the blob with generation 2.
  retrainer.AppendSessions(fresh);
  ASSERT_TRUE(retrainer.RetrainOnce().ok());
  {
    const auto mapped = SnapshotIo::Map(file.path());
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ((*mapped)->version(), 2u);
    // A brand-new replica cold-booted from the persisted blob serves the
    // retrained generation exactly.
    RecommenderEngine replica(EngineOptions{.num_threads = 1});
    ASSERT_TRUE(replica.LoadAndPublish(file.path()).ok());
    EXPECT_EQ(replica.current_version(), 2u);
    for (const std::vector<QueryId>& context : PrefixContexts(fresh, 60)) {
      const Recommendation a =
          engine.Recommend(context, 10, ServeOptions{}).recommendation;
      const Recommendation b =
          replica.Recommend(context, 10, ServeOptions{}).recommendation;
      ASSERT_EQ(a.covered, b.covered);
      ASSERT_EQ(a.queries.size(), b.queries.size());
      for (size_t i = 0; i < a.queries.size(); ++i) {
        EXPECT_EQ(a.queries[i].query, b.queries[i].query);
      }
    }
  }
}

TEST(SnapshotIoTest, PersistWithFullPublishStillWritesCompactBlob) {
  // persist_path without publish_compact: readers get the exact packing,
  // the disk gets the compact re-pack.
  const std::vector<AggregatedSession> base = SeededCorpus(30, 300, 80);
  TempFile file("fullpublish.blob");
  RecommenderEngine engine(EngineOptions{.num_threads = 1});
  RetrainerOptions options;
  options.model.default_max_depth = 4;
  options.vocabulary_size = 1 << 10;
  options.persist_path = file.path();
  Retrainer retrainer(&engine, options);
  ASSERT_TRUE(retrainer.Bootstrap(base).ok());

  const auto published = std::dynamic_pointer_cast<const CompactSnapshot>(
      engine.CurrentSnapshot());
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->options().top_k, 0u);
  const auto mapped = SnapshotIo::Map(file.path());
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ((*mapped)->version(), 1u);
  EXPECT_EQ((*mapped)->options().top_k, options.compact.top_k);
}

// ------------------------------------------------ format compatibility

/// The committed golden blob: regenerate with
///   SQP_REGEN_GOLDEN=1 ./sqp_core_tests --gtest_filter='*Golden*'
/// and commit the file together with a kSnapshotFormatVersion bump
/// whenever the format intentionally changes. CI runs this test in a
/// dedicated job: if the current reader cannot reproduce the freshly
/// trained model's top-10 lists from the golden bytes, or the fresh model
/// no longer packs and saves to exactly those bytes, the format or the
/// packing drifted silently and the build fails.
constexpr char kGoldenRelPath[] = "/golden_snapshot_v1.blob";
constexpr uint64_t kGoldenSeed = 77;
constexpr size_t kGoldenSessions = 500;
constexpr QueryId kGoldenVocabulary = 100;
constexpr uint64_t kGoldenVersion = 1;

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// The blob `compact` saves is the committed golden file, byte for byte.
void ExpectSavesGoldenBytes(const CompactSnapshot& compact,
                            const std::string& golden_path) {
  TempFile fresh("golden_fresh.blob");
  ASSERT_TRUE(SnapshotIo::Save(compact, fresh.path()).ok());
  const std::vector<char> golden = FileBytes(golden_path);
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(FileBytes(fresh.path()) == golden)
      << "a freshly packed and saved blob differs from " << golden_path;
}

std::shared_ptr<const CompactSnapshot> BuildGoldenCompact() {
  const std::vector<AggregatedSession> corpus =
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary);
  const auto full = BuildFull(corpus, kGoldenVersion, 1 << 10);
  return CompactSnapshot::FromSnapshot(*full, CompactOptions{.top_k = 10});
}

TEST(SnapshotGoldenTest, CommittedBlobMatchesFreshlyTrainedModel) {
  const std::string golden_path = std::string(SQP_TEST_DATA_DIR) +
                                  kGoldenRelPath;
  const auto compact = BuildGoldenCompact();
  if (std::getenv("SQP_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(SnapshotIo::Save(*compact, golden_path).ok());
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  ASSERT_TRUE(std::filesystem::exists(golden_path))
      << golden_path << " is missing — regenerate with SQP_REGEN_GOLDEN=1";

  const auto loaded = SnapshotIo::Load(golden_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto mapped = SnapshotIo::Map(golden_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  EXPECT_EQ((*loaded)->version(), kGoldenVersion);
  EXPECT_EQ((*loaded)->num_nodes(), compact->num_nodes());
  EXPECT_EQ((*loaded)->num_entries(), compact->num_entries());
  EXPECT_EQ((*loaded)->sigmas(), compact->sigmas());

  // Identical top-10 lists between the golden bytes and a model trained
  // from scratch on the same seeded corpus, through both restore paths.
  const std::vector<std::vector<QueryId>> contexts = PrefixContexts(
      SeededCorpus(kGoldenSeed, kGoldenSessions, kGoldenVocabulary), 500);
  ExpectBitIdentical(*compact, **loaded, contexts, 10);
  ExpectBitIdentical(*compact, **mapped, contexts, 10);
  ExpectSavesGoldenBytes(*compact, golden_path);
}

/// The committed golden blob of format version 2 (u32 count codes):
/// the exact packing of a seeded corpus plus one aggregated session of
/// frequency 70000, whose transitions push non-root counts past 16 bits.
/// Regenerate exactly like the version-1 golden.
constexpr char kWideGoldenRelPath[] = "/golden_snapshot_v2.blob";
constexpr uint64_t kWideGoldenSeed = 78;
constexpr size_t kWideGoldenSessions = 200;
constexpr QueryId kWideGoldenVocabulary = 40;

std::vector<AggregatedSession> WideGoldenCorpus() {
  std::vector<AggregatedSession> corpus =
      SeededCorpus(kWideGoldenSeed, kWideGoldenSessions,
                   kWideGoldenVocabulary);
  corpus.push_back({{3, 5, 7}, 70000});
  return corpus;
}

TEST(SnapshotGoldenTest, CommittedWideCodeBlobMatchesFreshlyTrainedModel) {
  const std::string golden_path = std::string(SQP_TEST_DATA_DIR) +
                                  kWideGoldenRelPath;
  const std::vector<AggregatedSession> corpus = WideGoldenCorpus();
  const auto compact = CompactSnapshot::FromSnapshot(
      *BuildFull(corpus, kGoldenVersion, 1 << 10),
      CompactOptions{.top_k = 0});
  ASSERT_TRUE(compact->wide_codes());
  if (std::getenv("SQP_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(SnapshotIo::Save(*compact, golden_path).ok());
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  ASSERT_TRUE(std::filesystem::exists(golden_path))
      << golden_path << " is missing — regenerate with SQP_REGEN_GOLDEN=1";

  std::ifstream in(golden_path, std::ios::binary);
  std::vector<uint8_t> header(64);
  in.read(reinterpret_cast<char*>(header.data()), 64);
  EXPECT_EQ(LoadLE32(header.data() + 8), kSnapshotFormatVersionWideCodes);

  const auto loaded = SnapshotIo::Load(golden_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto mapped = SnapshotIo::Map(golden_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE((*loaded)->wide_codes());
  EXPECT_TRUE((*mapped)->wide_codes());
  EXPECT_EQ((*loaded)->num_entries(), compact->num_entries());
  EXPECT_EQ((*loaded)->sigmas(), compact->sigmas());

  const std::vector<std::vector<QueryId>> contexts =
      PrefixContexts(corpus, 500);
  ExpectBitIdentical(*compact, **loaded, contexts, 10);
  ExpectBitIdentical(*compact, **mapped, contexts, 10);
  ExpectSavesGoldenBytes(*compact, golden_path);
}

}  // namespace
}  // namespace sqp
