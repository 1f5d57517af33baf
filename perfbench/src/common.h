#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the three workloads: run options, the result record
// every workload fills, latency statistics and the open-loop clock.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/compact_snapshot.h"
#include "serve/admission_queue.h"
#include "corpus.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout
};

/// Every end-to-end metric, reported by every workload (see README.md
/// for what each one means on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double p50_us = 0.0;
  double capacity_rps = 0.0;
  double items_per_s = 0.0;
  double retrain_s = 0.0;
  double hit_at_5 = 0.0;
  double coverage = 0.0;
  double model_mb = 0.0;
  double peak_rss_mb = 0.0;
};

/// Every per-layer metric of the traced run; layers a workload does not
/// exercise stay 0.
struct Layers {
  // net
  double net_client_us = 0.0;
  double net_transport_us = 0.0;
  double wire_encode_ns = 0.0;
  double wire_decode_ns = 0.0;
  double net_frames = 0.0;
  double net_reconnects = 0.0;
  double net_wire_errors = 0.0;
  // serve.admission
  double admission_attempted = 0.0;
  double admission_admitted = 0.0;
  double admission_shed = 0.0;
  double admission_expired = 0.0;
  double admission_degraded = 0.0;
  // serve.worker_pool and the engine's own share
  double pool_lane_busy_frac = 0.0;
  double pool_items_per_s = 0.0;
  double engine_batch_overhead_us = 0.0;
  double engine_self_us = 0.0;
  // core.walk
  double walk_ns = 0.0;
  double walk_descent_ns = 0.0;
  double walk_score_merge_ns = 0.0;
  double walk_matched_len_mean = 0.0;
  // core.build
  double build_train_s = 0.0;
  double build_pack_s = 0.0;
  double build_persist_s = 0.0;
  double boot_load_s = 0.0;
  // serve.feedback
  double feedback_append_us = 0.0;
  double feedback_click_us = 0.0;
  double explorer_rerank_ns = 0.0;
  double feedback_appends = 0.0;
  double feedback_dropped = 0.0;
  // serve.retrainer
  double retrain_consume_s = 0.0;
  double retrain_rebuild_s = 0.0;
  double retrain_rebuilds = 0.0;
  double retrain_failures = 0.0;
  double engine_snapshot_swaps = 0.0;
  // latency tail of the untraced phase (see README.md)
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  // load generator and the trace itself
  double gen_lag_us = 0.0;
  double trace_requests = 0.0;
  double trace_coverage = 0.0;
  double trace_overhead = 0.0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  EndToEnd e2e;
  Layers layers;
};

/// Folds an engine's admission counters, over both QoS lanes, into
/// `layers`; `attempted` is how many requests the engine was asked to
/// serve (the base of the admitted and shed shares).
void AddAdmission(const sqp::AdmissionStats& admission, double attempted,
                  Layers* layers);

/// Wall time of each stage of one set-up.
struct SetupTimes {
  double train_s = 0.0;
  double pack_s = 0.0;
  double persist_s = 0.0;
  double boot_s = 0.0;
  double total_s = 0.0;  // corpus handed over -> first answer served
};

/// Set-up repetitions of one run.
class SetupLog {
 public:
  void Add(const SetupTimes& times) { reps_.push_back(times); }
  /// Median over repetitions of one stage.
  double Median(double SetupTimes::*stage) const;
  /// Median of train + pack + persist: what rebuilding the model costs.
  double RebuildMedian() const;

 private:
  std::vector<SetupTimes> reps_;
};

/// Prints the final result line (one JSON object) to stdout.
void PrintResult(const RunResult& result, bool trace);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Latency samples of one phase, in microseconds.
class LatencyLog {
 public:
  void Reserve(size_t n) { samples_.reserve(n); }
  void Add(double us) { samples_.push_back(us); }
  void Append(const LatencyLog& other);
  size_t size() const { return samples_.size(); }
  /// Quantile over all samples (nearest rank).
  double Quantile(double q) const;
  /// Reports the 90th and 99th percentiles as per-layer figures.
  void ReportTail(Layers* layers) const {
    layers->latency_p90_us = Quantile(0.9);
    layers->latency_p99_us = Quantile(0.99);
  }

 private:
  std::vector<double> samples_;
};

double PeakRssMb();
double FileMb(const std::string& path);

/// Per-core L2 size in bytes as the C library or, failing that, the
/// kernel reports it (0 if unknown).
uint64_t PerCoreL2Bytes();

using Clock = std::chrono::steady_clock;

/// Waits until `t`, spinning.
void WaitUntil(Clock::time_point t);

double MicrosBetween(Clock::time_point from, Clock::time_point to);

/// A steady-clock time point on the span timeline (see NowNs).
inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// CPUs the process may run on, as found by the first call (main makes it
/// before any thread is pinned).
size_t NumCpus();

/// Pins the calling thread (and every thread it starts afterwards) to the
/// `slot`-th CPU the process may run on, so a request crosses cores the
/// same way every run instead of wherever the scheduler happened to put
/// the threads. No-op when the process has fewer than `slot` + 1 CPUs.
///
/// Set-up repetitions rotate over the CPUs: on a shared host one core can
/// run markedly slower than the others for minutes, and a set-up median
/// taken on one core alone came out bimodal across runs.
void PinThisThread(size_t slot);

/// Pins thread `tid` (0: the calling thread) to the `slot`-th CPU, as
/// PinThisThread does.
void PinThread(pid_t tid, size_t slot);

/// Ids of the process's threads, to find the ones a library object started.
std::vector<pid_t> ProcessThreads();

/// Lets the calling thread run on every CPU again.
void UnpinThisThread();

/// Replays `contexts` through one compact snapshot single-threaded and
/// splits a walk into its descent (MatchedDepth) and the rest.
struct WalkSplit {
  double descent_ns = 0.0;
  double score_merge_ns = 0.0;
};
WalkSplit TimeWalkSplit(const sqp::CompactServingBase& snapshot,
                        std::span<const Step> steps, size_t rounds);

/// True when two answers agree on coverage, matched length, query ids and
/// score bits.
bool BitIdentical(const sqp::Recommendation& a, const sqp::Recommendation& b);

/// True when `next` is among the served queries.
bool Hit(const sqp::Recommendation& rec, sqp::QueryId next);

/// Creates (or empties) a directory.
void FreshDir(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
