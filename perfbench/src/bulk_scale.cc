// bulk_scale: one caller submits 256-context RecommendMany batches, each
// after the previous one returned, to an in-process engine booted with
// LoadAndPublish from the widened corpus's blob: one lane in untraced runs,
// four in the traced run, where the worker pool fans out (see
// BulkScaleSpec). The blob is several times a core's L2 and the contexts
// come from across the whole corpus, so the walk misses cache; no net, no
// feedback.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/snapshot_io.h"
#include "load.h"
#include "serve/recommender_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kTopN = 5;
constexpr size_t kMaxSamples = 4096;
constexpr double kWarmupSeconds = 0.5;

/// Corpus -> trained snapshot -> packed -> persisted blob -> booted
/// engine -> first batch answered.
SetupTimes Boot(const Corpus& corpus, const std::string& blob,
                const BulkScaleSpec& spec, size_t lanes, bool traced,
                std::unique_ptr<sqp::RecommenderEngine>* engine) {
  SetupTimes times;
  const Clock::time_point t0 = Clock::now();
  sqp::MvmmOptions model;
  model.default_max_depth = kMaxContext;
  sqp::TrainingData data;
  data.sessions = &corpus.train;
  data.vocabulary_size = corpus.vocabulary_size;
  Clock::time_point t1;
  std::shared_ptr<const sqp::CompactSnapshot> packed;
  {
    auto built = sqp::ModelSnapshot::Build(data, model, /*version=*/1);
    SQP_CHECK(built.ok());
    t1 = Clock::now();
    packed = sqp::CompactSnapshot::FromSnapshot(**built);
  }
  const Clock::time_point t2 = Clock::now();
  SQP_CHECK_OK(sqp::SnapshotIo::Save(*packed, blob));
  const Clock::time_point t3 = Clock::now();
  *engine = std::make_unique<sqp::RecommenderEngine>(
      sqp::EngineOptions{.num_threads = lanes});
  if (traced) {
    auto mapped = sqp::SnapshotIo::Map(blob);
    SQP_CHECK(mapped.ok());
    (*engine)->Publish(
        std::make_shared<TracedSnapshot>(std::move(mapped.value())));
  } else {
    SQP_CHECK_OK((*engine)->LoadAndPublish(blob));
  }
  const Clock::time_point t4 = Clock::now();
  std::vector<sqp::ContextRef> refs;
  for (size_t i = 0; i < spec.batch && i < corpus.trace.size(); ++i) {
    refs.emplace_back(corpus.trace[i].context);
  }
  sqp::ServeOptions options;
  options.lane = sqp::QosLane::kBulk;
  const sqp::BatchResult first =
      (*engine)->RecommendMany(std::span<const sqp::ContextRef>(refs), kTopN,
                               options);
  SQP_CHECK(first.served == refs.size());
  const Clock::time_point t5 = Clock::now();
  times.train_s = std::chrono::duration<double>(t1 - t0).count();
  times.pack_s = std::chrono::duration<double>(t2 - t1).count();
  times.persist_s = std::chrono::duration<double>(t3 - t2).count();
  times.boot_s = std::chrono::duration<double>(t4 - t3).count();
  times.total_s = std::chrono::duration<double>(t5 - t0).count();
  return times;
}

struct Sample {
  size_t step = 0;
  sqp::Recommendation served;
};

}  // namespace

RunResult RunBulkScale(const RunOptions& options) {
  const Corpus corpus = MakeCorpus(ScaleCorpus(), options.seed);
  const BulkScaleSpec spec;
  RunResult result;
  const std::string blob = options.workdir + "/scale.blob";

  // One set-up per process: run.py reports the median over processes.
  std::unique_ptr<sqp::RecommenderEngine> engine;
  const std::vector<pid_t> before = ProcessThreads();
  const size_t lanes = options.trace ? spec.lanes : 1;
  const SetupTimes setup =
      Boot(corpus, blob, spec, lanes, options.trace, &engine);

  // One lane per CPU: the caller on the first, each pool worker the engine
  // started (traced runs) on one of its own. Left to the scheduler, the
  // lanes of a fresh process shared CPUs for its first seconds, at twice
  // the batch time.
  PinThisThread(0);
  size_t lane = 1;
  for (const pid_t tid : ProcessThreads()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      PinThread(tid, lane++);
    }
  }
  SQP_CHECK(lane == lanes);

  // The scale tier must stay out of cache: refuse to report a blob that
  // shrank below twice a core's L2, or one that cannot be checked.
  const double model_mb = FileMb(blob);
  const uint64_t l2 = PerCoreL2Bytes();
  const bool out_of_cache =
      l2 > 0 && model_mb * 1024.0 * 1024.0 >= 2.0 * static_cast<double>(l2);
  std::fprintf(stderr,
               "bulk_scale: blob %.2f MiB, per-core L2 %.2f MiB (%s)\n",
               model_mb, static_cast<double>(l2) / (1024.0 * 1024.0),
               out_of_cache ? "blob >= 2x L2"
               : l2 == 0    ? "L2 SIZE UNKNOWN"
                            : "BLOB FITS IN 2x L2");

  // Batches start at consecutive batch-sized offsets of the trace.
  std::vector<size_t> order;
  for (size_t i = 0; i + spec.batch <= corpus.trace.size(); i += spec.batch) {
    order.push_back(i);
  }
  size_t cursor = 0;
  sqp::Rng sampler(SubSeed(options.seed, 21));
  std::vector<Sample> samples;
  uint64_t items = 0;
  uint64_t items_failed = 0;
  uint64_t items_hit = 0;
  uint64_t items_covered = 0;
  double matched_sum = 0.0;
  std::vector<sqp::ContextRef> refs;
  sqp::ServeOptions serve_options;
  serve_options.lane = sqp::QosLane::kBulk;

  const auto serve = [&](size_t first, Clock::time_point, uint64_t request) {
    refs.clear();
    for (size_t i = 0; i < spec.batch; ++i) {
      refs.emplace_back(corpus.trace[first + i].context);
    }
    uint64_t engine_id = 0;
    int64_t call_start = 0;
    if (request != 0) {
      engine_id = Tracer::NewId();
      Tracer::SetLocal({.request = request, .parent = engine_id});
      Tracer::SetShared({.request = request, .parent = engine_id});
      call_start = NowNs();
    }
    sqp::BatchResult batch = engine->RecommendMany(
        std::span<const sqp::ContextRef>(refs), kTopN, serve_options);
    Outcome outcome;
    outcome.done = Clock::now();
    if (request != 0) {
      const int64_t call_end = ToNs(outcome.done);
      Tracer::SetShared({});
      Tracer::SetLocal({});
      Tracer::Record(Span{.id = engine_id,
                          .parent = request,
                          .request = request,
                          .start_ns = call_start,
                          .end_ns = call_end,
                          .layer = Layer::kEngine});
    }
    outcome.ok = batch.served == refs.size();
    for (size_t i = 0; i < refs.size(); ++i) {
      sqp::Recommendation& rec = batch.results[i];
      ++items;
      if (batch.statuses[i] != sqp::StatusCode::kOk) {
        ++items_failed;
        continue;
      }
      if (rec.covered) ++items_covered;
      if (Hit(rec, corpus.trace[first + i].next)) ++items_hit;
      matched_sum += static_cast<double>(rec.matched_length);
      if (samples.size() < kMaxSamples && sampler.Bernoulli(1.0 / 64)) {
        samples.push_back({first + i, std::move(rec)});
      }
    }
    return outcome;
  };

  // The first batches fault the mapped blob in and warm the caches; they
  // are not measured.
  RunLoop(order, &cursor, LoopPlan{.seconds = kWarmupSeconds}, serve);
  items = items_failed = items_hit = items_covered = 0;
  matched_sum = 0.0;

  const LoopPlan closed{.seconds = options.trace ? options.seconds * 0.5
                                                 : options.seconds};
  const LoopStats plain = RunLoop(order, &cursor, closed, serve);
  LoopStats traced;
  const uint64_t plain_items = items;
  if (options.trace) {
    items = 0;
    matched_sum = 0.0;
    Tracer::SetSampleEvery(spec.trace_every);
    Tracer::Enable(true);
    traced = RunLoop(order, &cursor, closed, serve);
    Tracer::Enable(false);
  }
  result.attempted = plain_items + (options.trace ? items : 0);
  result.failed = items_failed;

  // Correctness: sampled answers against a single-lane engine on the same
  // blob.
  sqp::RecommenderEngine reference(sqp::EngineOptions{.num_threads = 1});
  SQP_CHECK_OK(reference.LoadAndPublish(blob));
  size_t mismatches = 0;
  for (const Sample& sample : samples) {
    const sqp::ServeResult expected = reference.Recommend(
        corpus.trace[sample.step].context, kTopN, sqp::ServeOptions{});
    if (!BitIdentical(sample.served, expected.recommendation)) ++mismatches;
  }
  result.correct = out_of_cache && mismatches == 0 && !samples.empty();
  std::fprintf(stderr,
               "bulk_scale: %zu sampled answers replayed on a reference "
               "engine, %zu mismatches\n",
               samples.size(), mismatches);

  if (!options.trace) {
    EndToEnd& e = result.e2e;
    e.setup_s = setup.total_s;
    e.p50_us = plain.latency.Quantile(0.5);
    e.capacity_rps = plain.AnsweredPerSecond();
    e.items_per_s =
        static_cast<double>(plain_items - items_failed) / plain.elapsed_s;
    e.retrain_s = setup.train_s + setup.pack_s + setup.persist_s;
    e.hit_at_5 = static_cast<double>(items_hit) / items;
    e.coverage = static_cast<double>(items_covered) / items;
    e.model_mb = model_mb;
    e.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "bulk_scale: %llu batches of %zu on %zu lanes in %.2f s, "
                 "%.0f items/s, batch p50 %.1f us, p90 %.1f us, p99 %.1f "
                 "us, setup %.2f s\n",
                 static_cast<unsigned long long>(plain.sent), spec.batch,
                 lanes, plain.elapsed_s, e.items_per_s, e.p50_us,
                 plain.latency.Quantile(0.9), plain.latency.Quantile(0.99),
                 e.setup_s);
  } else {
    Layers& l = result.layers;
    const Breakdown b = Analyze(Tracer::Collect());
    l.trace_requests = static_cast<double>(b.requests);
    l.trace_coverage = b.Coverage();
    l.trace_overhead =
        traced.latency.Quantile(0.5) / plain.latency.Quantile(0.5) - 1.0;
    plain.latency.ReportTail(&l);
    l.pool_items_per_s = static_cast<double>(plain_items) / plain.elapsed_s;
    l.walk_ns = b.MeanSpan(Layer::kWalk);
    l.walk_matched_len_mean =
        items == 0 ? 0.0 : matched_sum / static_cast<double>(items);
    l.engine_self_us = b.SelfPerRequest(Layer::kEngine) / 1e3;
    if (b.batches > 0) {
      l.pool_lane_busy_frac =
          b.lane_walk_ns / (static_cast<double>(lanes) * b.batch_ns);
      l.engine_batch_overhead_us = b.batch_overhead_ns / b.batches / 1e3;
    }
    const sqp::EngineStats stats = engine->stats();
    AddAdmission(stats.admission, static_cast<double>(stats.batches_served),
                 &l);
    // Descent vs score+merge on contexts spread over the whole trace.
    std::vector<Step> spread;
    const size_t stride = std::max<size_t>(1, corpus.trace.size() / 8192);
    for (size_t i = 0; i < corpus.trace.size(); i += stride) {
      spread.push_back(corpus.trace[i]);
    }
    auto mapped = sqp::SnapshotIo::Map(blob);
    SQP_CHECK(mapped.ok());
    const WalkSplit split = TimeWalkSplit(**mapped, spread, 3);
    l.walk_descent_ns = split.descent_ns;
    l.walk_score_merge_ns = split.score_merge_ns;
    l.build_train_s = setup.train_s;
    l.build_pack_s = setup.pack_s;
    l.build_persist_s = setup.persist_s;
    l.boot_load_s = setup.boot_s;
    std::fprintf(stderr,
                 "bulk_scale traced: %zu batches (1 in %zu), named layers "
                 "cover %.1f%% of batch time, tracing overhead %+.1f%% on "
                 "p50\n",
                 b.requests, spec.trace_every, 100.0 * l.trace_coverage,
                 100.0 * l.trace_overhead);
  }
  engine.reset();
  return result;
}

}  // namespace perfbench
