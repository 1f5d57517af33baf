#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "log/data_reduction.h"
#include "log/query_dictionary.h"
#include "log/session_aggregator.h"
#include "log/session_segmenter.h"
#include "synth/log_synthesizer.h"
#include "synth/oracle.h"
#include "synth/vocabulary.h"
#include "util/status.h"

namespace perfbench {
namespace {

constexpr uint64_t kWorldSeed = 20091;

}  // namespace

CorpusConfig ToyCorpus() { return CorpusConfig{}; }

CorpusConfig ScaleCorpus() {
  CorpusConfig config;
  config.num_terms = 20000;
  config.topics.num_topics = 1000;
  config.topics.terms_per_topic = 24;
  config.topics.intents_per_topic = 40;
  config.topics.num_shared_terms = 1000;
  config.train_sessions = 160000;
  config.traffic_sessions = 40000;
  config.zipf_s = 0.7;
  config.min_frequency_exclusive = 0;
  return config;
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PoissonSchedule::NextGap() {
  // 1 - U is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng_.UniformDouble()) / rate_per_s_;
}

Corpus MakeCorpus(const CorpusConfig& config, uint64_t seed) {
  // The vocabulary and topic model are the fixed world the users live in;
  // the seed draws the logs: which users search for what, and when.
  const sqp::Vocabulary vocabulary(
      sqp::VocabularyConfig{.num_terms = config.num_terms,
                            .synonym_fraction = 0.3},
      kWorldSeed);
  const sqp::TopicModel topics(&vocabulary, config.topics, kWorldSeed + 1);

  sqp::SynthesizerConfig train_synth;
  train_synth.num_sessions = config.train_sessions;
  train_synth.num_machines = config.train_sessions / 25 + 1;
  train_synth.session.zipf_s = config.zipf_s;
  train_synth.session.singleton_prob = config.singleton_prob;
  train_synth.session.head_intents = static_cast<size_t>(
      static_cast<double>(topics.num_intents()) * config.established_fraction);
  sqp::SynthesizerConfig traffic_synth = train_synth;
  traffic_synth.num_sessions = config.traffic_sessions;
  traffic_synth.num_machines = config.traffic_sessions / 25 + 1;
  traffic_synth.session.novel_fraction = config.drift_fraction;

  sqp::RelatednessOracle oracle;
  const sqp::SynthCorpus train_log =
      sqp::LogSynthesizer(&topics, train_synth)
          .Synthesize(SubSeed(seed, 3), &oracle);
  const sqp::SynthCorpus traffic_log =
      sqp::LogSynthesizer(&topics, traffic_synth)
          .Synthesize(SubSeed(seed, 4), &oracle);

  // One dictionary across both periods, so a query keeps its id and a
  // drifted query gets an id the trained model has never seen.
  sqp::QueryDictionary dictionary;
  const sqp::SessionSegmenter segmenter;
  std::vector<sqp::Session> train_sessions;
  std::vector<sqp::Session> traffic_sessions;
  SQP_CHECK_OK(
      segmenter.Segment(train_log.records, &dictionary, &train_sessions));
  SQP_CHECK_OK(
      segmenter.Segment(traffic_log.records, &dictionary, &traffic_sessions));

  Corpus corpus;
  sqp::SessionAggregator aggregator;
  aggregator.Add(train_sessions);
  corpus.train = sqp::ReduceSessions(
      aggregator.Finish(),
      sqp::ReductionOptions{
          .min_frequency_exclusive = config.min_frequency_exclusive,
          .max_session_length = 10},
      nullptr);
  corpus.vocabulary_size = dictionary.size();

  for (const sqp::Session& session : traffic_sessions) {
    if (session.queries.size() < 2) continue;
    corpus.session_starts.push_back(corpus.trace.size());
    for (size_t k = 1; k < session.queries.size(); ++k) {
      const size_t begin = k > kMaxContext ? k - kMaxContext : 0;
      Step step;
      step.context.assign(session.queries.begin() + begin,
                          session.queries.begin() + k);
      step.next = session.queries[k];
      corpus.trace.push_back(std::move(step));
    }
  }
  SQP_CHECK(!corpus.train.empty() && !corpus.trace.empty());
  return corpus;
}

}  // namespace perfbench
