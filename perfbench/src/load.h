#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// The load generator shared by every workload: replays trace steps either
// open-loop on a seeded Poisson schedule (latency measured from each
// request's due time, so a stall also delays every request queued behind
// it) or closed-loop (next request as soon as the previous one returns).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

struct Outcome {
  /// When the system answered; bookkeeping after it is not timed.
  Clock::time_point done;
  bool ok = false;
  bool covered = false;
  bool hit = false;
};

struct LoopStats {
  LatencyLog latency;
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
  uint64_t covered = 0;
  double lag_us = 0.0;  // summed lateness of sends behind their due time
  double elapsed_s = 0.0;

  /// Requests answered per second of the phase.
  double AnsweredPerSecond() const {
    return elapsed_s > 0.0 ? static_cast<double>(sent - failed) / elapsed_s
                           : 0.0;
  }

  /// Folds in another client's stats over the same wall-clock window.
  void Merge(const LoopStats& other) {
    latency.Append(other.latency);
    sent += other.sent;
    failed += other.failed;
    hits += other.hits;
    covered += other.covered;
    lag_us += other.lag_us;
    elapsed_s = std::max(elapsed_s, other.elapsed_s);
  }
};

/// One phase of load.
struct LoopPlan {
  double seconds = 1.0;
  /// > 0: open loop at this Poisson rate; 0: closed loop.
  double rate_per_s = 0.0;
  uint64_t seed = 0;
  /// A request that fails counts as missing this limit.
  double limit_us = 0.0;
  /// Stops early after this many requests (0 = no cap), so that what a
  /// saturating phase leaves behind (feedback records, say) does not grow
  /// with how fast the system serves.
  uint64_t max_requests = 0;
};

/// Replays `order` (indices into the trace), resuming at `*cursor`, as
/// `plan` says. `serve(step, due, request)` answers one step and stamps
/// Outcome::done when the answer arrived; `request` is the span id of the
/// request when tracing is on, else 0.
template <typename Serve>
LoopStats RunLoop(const std::vector<size_t>& order, size_t* cursor,
                  const LoopPlan& plan, Serve&& serve) {
  LoopStats stats;
  const double rate_per_s = plan.rate_per_s;
  const double limit_us = plan.limit_us;
  PoissonSchedule schedule(rate_per_s > 0.0 ? rate_per_s : 1.0, plan.seed);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(plan.seconds));
  Clock::time_point due = start;
  stats.latency.Reserve(static_cast<size_t>(
      rate_per_s > 0.0 ? rate_per_s * plan.seconds * 1.2 + 16 : 1 << 16));
  while (plan.max_requests == 0 || stats.sent < plan.max_requests) {
    if (rate_per_s > 0.0) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(schedule.NextGap()));
      if (due >= stop) break;
      WaitUntil(due);
    } else {
      due = Clock::now();
      if (due >= stop) break;
    }
    const size_t step = order[*cursor % order.size()];
    ++*cursor;
    const bool traced = Tracer::SampleRequest();
    const uint64_t request = traced ? Tracer::NewId() : 0;
    const Clock::time_point sent = Clock::now();
    const Outcome outcome = serve(step, due, request);
    const Clock::time_point done = outcome.done;
    if (traced) {
      const int64_t due_ns = ToNs(due);
      const int64_t sent_ns = ToNs(sent);
      Tracer::Record(Span{.id = Tracer::NewId(),
                          .parent = request,
                          .request = request,
                          .start_ns = due_ns,
                          .end_ns = sent_ns,
                          .layer = Layer::kGenLag});
      Tracer::Record(Span{.id = request,
                          .request = request,
                          .start_ns = due_ns,
                          .end_ns = ToNs(done),
                          .layer = Layer::kRequest});
    }
    double latency = MicrosBetween(due, done);
    ++stats.sent;
    stats.lag_us += MicrosBetween(due, sent);
    if (!outcome.ok) {
      ++stats.failed;
      latency = std::max(latency, limit_us);
    }
    stats.latency.Add(latency);
    if (outcome.covered) ++stats.covered;
    if (outcome.hit) ++stats.hits;
  }
  stats.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
