#include "serve/recommender_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "core/snapshot_io.h"
#include "log/shard_partitioner.h"
#include "serve/feedback.h"
#include "util/timer.h"

namespace sqp {
namespace {

using internal::ThreadScratch;

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return std::clamp<size_t>(requested, 1, 64);
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 16);
}

/// Answers one context from `model` and applies the feedback hook (which
/// may rerank `*rec`); returns the hook's impression record id. The first
/// request a scratch serves against a given snapshot reserves every buffer
/// to the snapshot's hint, so steady-state serving allocates nothing —
/// lazily per (scratch, snapshot) pair, because publish-time sizing would
/// mutate lane scratch that in-flight batches are still using. Prepare
/// only ever grows capacities, so a scratch hopping between fleet shards
/// settles at the fleet-wide maxima and the re-checks become no-ops.
uint64_t ServeOne(const ServingSnapshot& model, ContextRef context,
                  size_t top_n, const FeedbackHook* feedback,
                  SnapshotScratch& scratch, Recommendation* rec) {
  if (scratch.prepared_for != &model) {
    scratch.Prepare(model.ScratchHint());
    scratch.prepared_for = &model;
  }
  *rec = model.Recommend(context, top_n, &scratch);
  return feedback == nullptr ? 0
                             : feedback->OnServed(context, model.version(),
                                                  rec);
}

double MicrosSince(Deadline::Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Deadline::Clock::now() -
                                                   start)
      .count();
}

}  // namespace

namespace internal {

BatchRunner::BatchRunner(size_t num_threads,
                         const AdmissionOptions& admission)
    : pool_(ResolveThreads(num_threads)), admission_(admission) {
  lane_scratch_.resize(pool_.num_lanes());
}

BatchResult BatchRunner::Run(
    std::span<const ContextRef> contexts, size_t top_n,
    const ServeOptions& options,
    std::span<const std::shared_ptr<const ServingSnapshot>> snapshots) {
  const Deadline::Clock::time_point start = Deadline::Clock::now();
  const size_t n = contexts.size();
  BatchResult out;
  out.results.resize(n);
  out.statuses.assign(n, StatusCode::kOk);
  out.effective_top_n = top_n;

  queries_.fetch_add(n, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);

  if (options.deadline.Expired(start)) {
    admission_.CountShed(options.lane, StatusCode::kDeadlineExceeded);
    out.admission = Status::DeadlineExceeded("deadline expired on arrival");
    std::fill(out.statuses.begin(), out.statuses.end(),
              StatusCode::kDeadlineExceeded);
    return out;
  }
  if (n == 0) return out;

  const size_t effective_top_n =
      admission_.DegradedTopN(top_n, options.deadline);
  out.effective_top_n = effective_top_n;
  out.degraded = effective_top_n < top_n;

  // One task per item on both paths. With a bounded deadline, a clock
  // read before every 32nd item flips `expired`; every item from then on
  // is returned unserved with an explicit status instead of blocking past
  // the deadline. The first stride is covered by the arrival check
  // (inline) or by the admission grant, which only happens in time.
  const bool bounded = options.deadline.bounded();
  std::atomic<bool> expired{false};
  const uint32_t num_routes = static_cast<uint32_t>(snapshots.size());
  const auto serve = [&](size_t i, SnapshotScratch& scratch) {
    if (bounded && (expired.load(std::memory_order_relaxed) ||
                    (i != 0 && (i & 31u) == 0 &&
                     options.deadline.Expired()))) {
      expired.store(true, std::memory_order_relaxed);
      out.statuses[i] = StatusCode::kDeadlineExceeded;
      return;
    }
    const ServingSnapshot* model =
        snapshots[num_routes == 1 ? 0 : ShardOfContext(contexts[i],
                                                       num_routes)]
            .get();
    if (model == nullptr) {
      // Unpublished replica or dead shard: uncovered-empty answer with an
      // explicit status; items routed elsewhere are served as usual.
      out.statuses[i] = StatusCode::kUnavailable;
      return;
    }
    ServeOne(*model, contexts[i], effective_top_n, options.feedback, scratch,
             &out.results[i]);
  };

  const bool pooled = pool_.num_lanes() > 1 && n >= kMinBatchFanout;
  double service_us = 0.0;
  if (pooled) {
    const Status admitted =
        admission_.Admit(options.lane, options.deadline, n);
    if (!admitted.ok()) {
      std::fill(out.statuses.begin(), out.statuses.end(), admitted.code());
      out.admission = admitted;
      return out;
    }
    const WallTimer service;
    pool_.Run(n, [&](size_t i, size_t lane) { serve(i, lane_scratch_[lane]); });
    service_us = service.ElapsedSeconds() * 1e6;
  } else {
    // Inline path: no slot contention, but the deadline still cuts the
    // batch short so a caller never blocks past it on a huge inline run.
    SnapshotScratch& scratch = ThreadScratch();
    for (size_t i = 0; i < n; ++i) serve(i, scratch);
  }

  size_t expired_items = 0;
  for (const StatusCode code : out.statuses) {
    if (code == StatusCode::kOk) {
      ++out.served;
    } else if (code == StatusCode::kDeadlineExceeded) {
      ++expired_items;
    }
  }
  if (pooled) admission_.Release(out.served, service_us);
  admission_.RecordServed(options.lane, MicrosSince(start), out.degraded,
                          expired_items);
  return out;
}

}  // namespace internal

RecommenderEngine::RecommenderEngine(EngineOptions options)
    : batch_(options.num_threads, options.admission) {}

void RecommenderEngine::Publish(
    std::shared_ptr<const ServingSnapshot> snapshot) {
  snapshot_.store(std::move(snapshot));
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
}

Status RecommenderEngine::LoadAndPublish(const std::string& path) {
  Result<std::shared_ptr<const MappedCompactSnapshot>> mapped =
      SnapshotIo::Map(path);
  if (!mapped.ok()) return mapped.status();
  Publish(std::move(mapped.value()));
  return Status::OK();
}

std::shared_ptr<const ServingSnapshot> RecommenderEngine::CurrentSnapshot()
    const {
  return snapshot_.load();
}

uint64_t RecommenderEngine::current_version() const {
  const std::shared_ptr<const ServingSnapshot> snapshot = CurrentSnapshot();
  return snapshot == nullptr ? 0 : snapshot->version();
}

BatchResult RecommenderEngine::RecommendMany(
    std::span<const ContextRef> contexts, size_t top_n,
    const ServeOptions& options) const {
  // One snapshot grab for the whole batch: even if a retrain publishes
  // mid-batch, every result comes from the same model generation.
  const std::shared_ptr<const ServingSnapshot> snapshot = CurrentSnapshot();
  BatchResult out = batch_.Run(contexts, top_n, options, {&snapshot, 1});
  out.served_version = snapshot == nullptr ? 0 : snapshot->version();
  return out;
}

ServeResult RecommenderEngine::Recommend(ContextRef context, size_t top_n,
                                         const ServeOptions& options) const {
  ServeResult out;
  thread_local const size_t counter_slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kCounterShards;
  queries_served_[counter_slot].value.fetch_add(1,
                                                std::memory_order_relaxed);
  // An unbounded request takes the legacy hot path: no clock reads, no
  // degrade check, no QoS accounting (it is by contract never shed or
  // degraded, so there is nothing to record that the serving counters
  // above don't already).
  const bool bounded = options.deadline.bounded();
  Deadline::Clock::time_point start;
  if (bounded) {
    start = Deadline::Clock::now();
    if (options.deadline.Expired(start)) {
      batch_.admission().CountShed(options.lane,
                                   StatusCode::kDeadlineExceeded);
      out.status = StatusCode::kDeadlineExceeded;
      return out;
    }
  }
  const std::shared_ptr<const ServingSnapshot> snapshot = CurrentSnapshot();
  if (snapshot == nullptr) {
    out.status = StatusCode::kUnavailable;
    return out;
  }
  out.served_version = snapshot->version();
  const size_t effective_top_n =
      bounded ? batch_.admission().DegradedTopN(top_n, options.deadline)
              : top_n;
  out.degraded = effective_top_n < top_n;
  out.feedback_record_id =
      ServeOne(*snapshot, context, effective_top_n, options.feedback,
               ThreadScratch(), &out.recommendation);
  if (bounded) {
    batch_.admission().RecordServed(options.lane, MicrosSince(start),
                                    out.degraded, 0);
  }
  return out;
}

EngineStats RecommenderEngine::stats() const {
  EngineStats stats;
  for (const CounterShard& shard : queries_served_) {
    stats.queries_served += shard.value.load(std::memory_order_relaxed);
  }
  stats.queries_served += batch_.queries();
  stats.batches_served = batch_.batches();
  stats.snapshots_published =
      snapshots_published_.load(std::memory_order_relaxed);
  stats.admission = batch_.admission().stats();
  return stats;
}

}  // namespace sqp
