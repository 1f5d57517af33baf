#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads and their fixed parameters. The same figures are
// recorded, with the reason for each, in perfbench/predictions.json.

#include <cstddef>
#include <cstdint>

#include "common.h"

namespace perfbench {

struct InteractiveTcpSpec {
  /// About half of the saturation capacity_rps measured in heavily
  /// contended periods of a shared 4-core x86-64 VM (55k-95k req/s across
  /// runs, about half of the low end when contended).
  double rate_per_s = 15000.0;
  /// Interactive deadline (the perceptual 100 ms of as-you-type
  /// suggestions), measured from the request's due time.
  double limit_us = 100000.0;
};

struct BulkScaleSpec {
  size_t batch = 256;
  /// Engine worker lanes of the traced run, the calling thread included.
  /// Untraced runs serve on one lane: a 4-lane batch wakes three pool
  /// workers on idle vCPUs and then the caller, and on a shared VM those
  /// wake-ups moved the median batch from ~88 to ~160 us in phases lasting
  /// minutes, with the code unchanged; one lane held its median.
  size_t lanes = 4;
  /// One traced batch in this many (a traced batch records a span per
  /// context).
  size_t trace_every = 8;
};

struct ClosedLoopSpec {
  /// Total offered rate over both client threads: a few percent of the
  /// hooked path's capacity, so the retrainer sets the contention.
  double rate_per_s = 12000.0;
  double limit_us = 100000.0;
  size_t client_threads = 2;
  /// Requests of the closed-loop saturation phase over both clients: the
  /// phase ends after these or a quarter of the run, whichever comes
  /// first, so the log and the final retrain do not grow with capacity.
  uint64_t saturation_requests = 200000;
  /// Chance that a user clicks the true next query when it was served.
  double click_prob = 0.5;
};

RunResult RunInteractiveTcp(const RunOptions& options);
RunResult RunBulkScale(const RunOptions& options);
RunResult RunClosedLoop(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
