#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

// Seeded inputs of every workload: a training corpus and a replayable
// traffic trace, both generated from src/synth and run through the same
// log pipeline the library ships (segment -> aggregate -> reduce). The
// program under test only ever sees the generated sessions and contexts.

#include <cstdint>
#include <vector>

#include "log/types.h"
#include "synth/topic_model.h"
#include "util/random.h"

namespace perfbench {

/// Longest context a request carries (the paper's D).
inline constexpr size_t kMaxContext = 5;

struct CorpusConfig {
  size_t num_terms = 2500;
  sqp::TopicModelConfig topics;
  size_t train_sessions = 50000;
  size_t traffic_sessions = 20000;
  /// Intent popularity skew (Zipf exponent over intents).
  double zipf_s = 1.15;
  double singleton_prob = 0.38;
  /// Training draws only the most popular fraction of intents ...
  double established_fraction = 0.7;
  /// ... and traffic additionally draws this fraction of its sessions
  /// from intents the training period never saw (drift).
  double drift_fraction = 0.35;
  /// Aggregated training sessions with frequency <= this are dropped
  /// (0 keeps singletons).
  uint64_t min_frequency_exclusive = 1;
};

/// The default corpus the serving tier is developed on: the model blob
/// stays in L1/L2.
CorpusConfig ToyCorpus();

/// The widened corpus: more topics and terms, a flatter Zipf and
/// singletons kept, so the model blob is several times a core's L2.
CorpusConfig ScaleCorpus();

/// One request of the trace: a session prefix (at most kMaxContext
/// queries, oldest first) and the query the user actually issued next.
struct Step {
  std::vector<sqp::QueryId> context;
  sqp::QueryId next = sqp::kInvalidQueryId;
};

struct Corpus {
  std::vector<sqp::AggregatedSession> train;
  size_t vocabulary_size = 0;
  /// Traffic sessions walked one query at a time, in log order: the
  /// steps of one session are consecutive, its context growing by one
  /// query per step up to kMaxContext.
  std::vector<Step> trace;
  /// Index into `trace` of each traffic session's first step.
  std::vector<size_t> session_starts;
};

Corpus MakeCorpus(const CorpusConfig& config, uint64_t seed);

/// Derives an independent 64-bit stream seed from a base seed and a tag.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Exponential inter-arrival gaps of a Poisson process at `rate_per_s`.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, uint64_t seed)
      : rate_per_s_(rate_per_s), rng_(seed) {}
  /// Seconds from the previous arrival to the next one.
  double NextGap();

 private:
  double rate_per_s_;
  sqp::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
