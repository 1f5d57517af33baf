// closed_loop: two client threads send single-context Recommend requests
// open-loop at a fixed rate to an engine bootstrapped on the toy corpus.
// Every request carries a FeedbackHook (a FeedbackLog plus an epsilon 0.1
// Explorer); a simulated user clicks the true next query when it was
// served. A third thread runs ConsumeFeedback then RetrainOnce back to
// back, publishing under the readers. Writes beside reads. A closed-loop
// saturation phase of the hooked path follows, with the retrainer stopped.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "load.h"
#include "serve/explorer.h"
#include "serve/feedback.h"
#include "serve/recommender_engine.h"
#include "serve/retrainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kTopN = 5;
constexpr size_t kSetupReps = 31;
constexpr size_t kMaxSamples = 4096;
constexpr const char* kExplorer = "epsilon:0.1";

/// Lets the consumer take the feedback log at a point where no request
/// is between its impression and its click: the log's consume contract
/// requires that a click be in the log before its impression is consumed.
/// Clients never wait. Each bumps its sequence number to odd when a
/// request starts and back to even once its click is in the log; the
/// consumer keeps a listing only if every number was even before it and
/// unchanged after it.
class RequestSeq {
 public:
  explicit RequestSeq(size_t clients) : seq_(clients) {}

  void Begin(size_t client) { seq_[client].value.fetch_add(1); }
  void End(size_t client) { seq_[client].value.fetch_add(1); }

  /// Runs `fn` until one run overlaps no request.
  template <typename Fn>
  void RunBetweenRequests(Fn&& fn) {
    std::vector<uint64_t> before(seq_.size());
    for (;;) {
      bool idle = true;
      for (size_t c = 0; c < seq_.size(); ++c) {
        before[c] = seq_[c].value.load();
        idle = idle && before[c] % 2 == 0;
      }
      if (!idle) {
        std::this_thread::yield();
        continue;
      }
      fn();
      bool unchanged = true;
      for (size_t c = 0; c < seq_.size(); ++c) {
        unchanged = unchanged && seq_[c].value.load() == before[c];
      }
      if (unchanged) return;
    }
  }

 private:
  struct alignas(64) Seq {
    std::atomic<uint64_t> value{0};  // sequentially consistent
  };
  std::vector<Seq> seq_;
};

/// The log directory's files and sizes at one instant.
using LogListing = std::vector<std::pair<std::string, uintmax_t>>;

/// A segment sealed (renamed) while the directory is read is left out;
/// the seal came from an append, so the caller discards this listing.
LogListing ListLog(const std::string& dir) {
  LogListing listing;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::error_code ec;
    const uintmax_t bytes = entry.file_size(ec);
    if (!ec) listing.emplace_back(entry.path().filename().string(), bytes);
  }
  return listing;
}

void CopyPrefix(std::ifstream& in, const fs::path& to, uintmax_t bytes) {
  SQP_CHECK(in.good());
  std::vector<char> buffer(bytes);
  in.read(buffer.data(), static_cast<std::streamsize>(bytes));
  SQP_CHECK(static_cast<uintmax_t>(in.gcount()) == bytes);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out.write(buffer.data(), static_cast<std::streamsize>(bytes));
  SQP_CHECK(out.good());
}

/// Brings `to` up to `listing`, a listing of the append-only log at `from`
/// taken at a quiescent point: sealed segments are copied once, the
/// active one up to its listed size.
void Mirror(const std::string& from, const std::string& to,
            const LogListing& listing, std::set<std::string>* copied_sealed) {
  std::set<std::string> present;
  for (const auto& [name, bytes] : listing) {
    present.insert(name);
    const fs::path source = fs::path(from) / name;
    if (source.extension() == ".seg") {
      if (copied_sealed->insert(name).second) {
        std::ifstream in(source, std::ios::binary);
        CopyPrefix(in, fs::path(to) / name, bytes);
      }
      continue;
    }
    // The active segment may have been sealed (renamed) since the listing,
    // under the same sequence number.
    std::ifstream in(source, std::ios::binary);
    if (!in.is_open()) {
      in.open(fs::path(source).replace_extension(".seg"), std::ios::binary);
    }
    CopyPrefix(in, fs::path(to) / name, bytes);
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(to)) {
    if (present.count(entry.path().filename().string()) == 0) {
      fs::remove(entry.path());
    }
  }
}

sqp::RetrainerOptions RetrainOptions(const Corpus& corpus,
                                     const std::string& persist_path) {
  sqp::RetrainerOptions options;
  options.model.default_max_depth = kMaxContext;
  options.vocabulary_size = corpus.vocabulary_size;
  options.publish_compact = true;
  options.persist_path = persist_path;
  return options;
}

/// The serving side under test. Untraced, the retrainer publishes straight
/// into `engine`; traced, it publishes into `shadow` and every snapshot is
/// re-published into `engine` wrapped in a TracedSnapshot.
struct Loop {
  std::unique_ptr<sqp::RecommenderEngine> engine;
  std::unique_ptr<sqp::RecommenderEngine> shadow;
  std::unique_ptr<sqp::Retrainer> retrainer;

  void Republish() {
    if (shadow != nullptr) {
      engine->Publish(
          std::make_shared<TracedSnapshot>(shadow->CurrentSnapshot()));
    }
  }
  /// The compact snapshot currently served, unwrapped.
  std::shared_ptr<const sqp::CompactServingBase> Compact() const {
    return std::dynamic_pointer_cast<const sqp::CompactServingBase>(
        (shadow != nullptr ? shadow : engine)->CurrentSnapshot());
  }
};

struct ClientState {
  LoopStats fixed;
  LoopStats saturation;  // untraced runs
  LoopStats traced;  // traced runs: the fixed-rate phase again, recorded
  uint64_t impressions = 0;
  uint64_t clicks = 0;
  double matched_sum = 0.0;
  uint64_t matched_n = 0;
  std::vector<std::vector<sqp::ScoredQuery>> served_lists;
};

}  // namespace

RunResult RunClosedLoop(const RunOptions& options) {
  const Corpus corpus = MakeCorpus(ToyCorpus(), options.seed);
  const ClosedLoopSpec spec;
  RunResult result;
  const std::string persist = options.workdir + "/closed.blob";

  // Bootstrap several times; the last loop serves.
  Loop loop;
  std::vector<double> setup;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    PinThisThread(rep % NumCpus());
    // The retrainer goes before the engines it publishes into.
    loop.retrainer.reset();
    loop.shadow.reset();
    loop.engine = std::make_unique<sqp::RecommenderEngine>(
        sqp::EngineOptions{.num_threads = 1});
    if (options.trace) {
      loop.shadow = std::make_unique<sqp::RecommenderEngine>(
          sqp::EngineOptions{.num_threads = 1});
    }
    loop.retrainer = std::make_unique<sqp::Retrainer>(
        options.trace ? loop.shadow.get() : loop.engine.get(),
        RetrainOptions(corpus, persist));
    std::vector<sqp::AggregatedSession> seed_corpus = corpus.train;
    const Clock::time_point t0 = Clock::now();
    SQP_CHECK_OK(loop.retrainer->Bootstrap(std::move(seed_corpus)));
    loop.Republish();
    const sqp::ServeResult first = loop.engine->Recommend(
        corpus.trace.front().context, kTopN, sqp::ServeOptions{});
    SQP_CHECK(first.status == sqp::StatusCode::kOk);
    setup.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  UnpinThisThread();

  const std::string log_dir = options.workdir + "/feedback";
  const std::string mirror_dir = options.workdir + "/feedback.consumed";
  FreshDir(log_dir);
  FreshDir(mirror_dir);
  auto opened = sqp::FeedbackLog::Open(
      {.dir = log_dir, .max_segment_bytes = 1 << 20, .max_segments = 1 << 30});
  SQP_CHECK(opened.ok());
  sqp::FeedbackLog* log = opened->get();
  auto explorer_options =
      sqp::ParseExplorerSpec(kExplorer, SubSeed(options.seed, 31));
  SQP_CHECK(explorer_options.ok());
  const sqp::Explorer explorer(*explorer_options);
  sqp::FeedbackHook hook;
  hook.log = log;
  hook.explorer = &explorer;

  // The consumer: list the log between requests, copy that prefix,
  // consume it, retrain.
  RequestSeq requests(spec.client_threads);
  std::set<std::string> copied_sealed;
  std::vector<double> cycle_s, consume_s, rebuild_s;
  const auto consume_and_retrain = [&]() -> size_t {
    LogListing listing;
    requests.RunBetweenRequests([&] {
      SQP_CHECK_OK(log->Flush());
      listing = ListLog(log_dir);
    });
    Mirror(log_dir, mirror_dir, listing, &copied_sealed);
    // Timed from here: the library's cycle, not the benchmark's copying.
    const Clock::time_point t0 = Clock::now();
    const sqp::Result<size_t> consumed =
        loop.retrainer->ConsumeFeedback(mirror_dir);
    SQP_CHECK(consumed.ok());
    const Clock::time_point t1 = Clock::now();
    if (*consumed == 0) return 0;
    SQP_CHECK_OK(loop.retrainer->RetrainOnce());
    loop.Republish();
    const Clock::time_point t2 = Clock::now();
    consume_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    rebuild_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    cycle_s.push_back(std::chrono::duration<double>(t2 - t0).count());
    return *consumed;
  };

  // Client t replays traffic sessions t, t + 2, ...: a user's context
  // grows one query per request.
  std::vector<std::vector<size_t>> orders(spec.client_threads);
  for (size_t i = 0; i < corpus.session_starts.size(); ++i) {
    const size_t end = i + 1 < corpus.session_starts.size()
                           ? corpus.session_starts[i + 1]
                           : corpus.trace.size();
    for (size_t s = corpus.session_starts[i]; s < end; ++s) {
      orders[i % spec.client_threads].push_back(s);
    }
  }

  std::vector<ClientState> clients(spec.client_threads);
  std::atomic<size_t> warmed{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> consumer_stopped{false};
  const auto client_main = [&](size_t c) {
    PinThisThread(c);
    ClientState& state = clients[c];
    sqp::Rng clicker(SubSeed(options.seed, 50 + c));
    size_t cursor = 0;
    const auto serve = [&](size_t s, Clock::time_point due,
                           uint64_t request) {
      const Step& step = corpus.trace[s];
      sqp::ServeOptions serve_options;
      serve_options.deadline = sqp::Deadline::At(
          due + std::chrono::microseconds(
                    static_cast<int64_t>(spec.limit_us)));
      requests.Begin(c);
      sqp::ServeResult served;
      uint64_t record_id = 0;
      if (request == 0) {
        serve_options.feedback = &hook;
        served = loop.engine->Recommend(step.context, kTopN, serve_options);
        record_id = served.feedback_record_id;
      } else {
        // Traced: the hook runs as its own span, on the answer the engine
        // returned — exactly what the engine does with it in-line.
        const uint64_t engine_id = Tracer::NewId();
        Tracer::SetLocal({.request = request, .parent = engine_id});
        const int64_t t0 = NowNs();
        served = loop.engine->Recommend(step.context, kTopN, serve_options);
        const int64_t t1 = NowNs();
        Tracer::SetLocal({});
        Tracer::Record(Span{.id = engine_id,
                            .parent = request,
                            .request = request,
                            .start_ns = t0,
                            .end_ns = t1,
                            .layer = Layer::kEngine});
        if (served.status == sqp::StatusCode::kOk) {
          record_id = hook.OnServed(step.context, served.served_version,
                                    &served.recommendation);
          Tracer::Record(Span{.id = Tracer::NewId(),
                              .parent = request,
                              .request = request,
                              .start_ns = t1,
                              .end_ns = NowNs(),
                              .layer = Layer::kFeedback});
        }
      }
      const sqp::Recommendation& rec = served.recommendation;
      Outcome outcome;
      outcome.done = Clock::now();
      outcome.ok = served.status == sqp::StatusCode::kOk;
      outcome.covered = outcome.ok && rec.covered;
      outcome.hit = outcome.ok && Hit(rec, step.next);
      if (record_id != 0) {
        ++state.impressions;
        for (size_t p = 0; p < rec.queries.size(); ++p) {
          if (rec.queries[p].query != step.next) continue;
          if (clicker.Bernoulli(spec.click_prob)) {
            const int64_t t0 = request != 0 ? NowNs() : 0;
            SQP_CHECK_OK(log->RecordClick(record_id,
                                          static_cast<uint32_t>(p)));
            ++state.clicks;
            if (request != 0) {
              Tracer::Record(Span{.id = Tracer::NewId(),
                                  .parent = request,
                                  .request = request,
                                  .start_ns = t0,
                                  .end_ns = NowNs(),
                                  .layer = Layer::kClick});
            }
          }
          break;
        }
      }
      requests.End(c);
      if (outcome.ok) {
        state.matched_sum += static_cast<double>(rec.matched_length);
        ++state.matched_n;
        if (state.served_lists.size() < kMaxSamples && !rec.queries.empty()) {
          state.served_lists.push_back(rec.queries);
        }
      }
      return outcome;
    };
    const LoopPlan fixed_rate{
        .seconds = options.seconds * (options.trace ? 0.5 : 0.75),
        .rate_per_s = spec.rate_per_s / spec.client_threads,
        .seed = SubSeed(options.seed, 60 + c),
        .limit_us = spec.limit_us};
    state.fixed = RunLoop(orders[c], &cursor, fixed_rate, serve);
    // Both clients start the next phase together.
    warmed.fetch_add(1);
    while (warmed.load() < spec.client_threads) std::this_thread::yield();
    if (!options.trace) {
      // The consumer stops first: capacity is that of the hooked serving
      // path itself (serve, explore, append), and the consumer's polling
      // of the request sequence numbers would contend with it.
      stop.store(true);
      while (!consumer_stopped.load()) std::this_thread::yield();
      state.saturation = RunLoop(
          orders[c], &cursor,
          {.seconds = options.seconds * 0.25,
           .limit_us = spec.limit_us,
           .max_requests = spec.saturation_requests / spec.client_threads},
          serve);
    } else {
      // Traced: the fixed-rate phase again with recording on.
      Tracer::Enable(true);
      state.matched_sum = 0.0;
      state.matched_n = 0;
      LoopPlan repeat = fixed_rate;
      repeat.seed = SubSeed(options.seed, 70 + c);
      state.traced = RunLoop(orders[c], &cursor, repeat, serve);
    }
  };

  std::thread consumer([&] {
    PinThisThread(spec.client_threads);
    while (!stop.load()) {
      if (consume_and_retrain() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    consumer_stopped.store(true);
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.client_threads; ++c) {
    threads.emplace_back(client_main, c);
  }
  for (std::thread& t : threads) t.join();
  Tracer::Enable(false);
  stop.store(true);
  consumer.join();
  // Fold in the tail of the log so the final snapshot reflects all of it.
  consume_and_retrain();

  // Counters are read before the correctness probes add traffic of their
  // own.
  const sqp::EngineStats engine = loop.engine->stats();

  // Correctness 1: the log reads back exactly what was appended.
  sqp::FeedbackReadReport report;
  const auto records = sqp::ReadFeedbackLog(log_dir, &report);
  SQP_CHECK(records.ok());
  const sqp::FeedbackLogStats log_stats = log->stats();
  uint64_t impressions = 0;
  uint64_t clicks = 0;
  for (const ClientState& state : clients) {
    impressions += state.impressions;
    clicks += state.clicks;
  }
  const bool log_ok = report.impressions == impressions &&
                      log_stats.impressions_appended == impressions &&
                      report.clicks == clicks &&
                      log_stats.clicks_appended == clicks &&
                      report.torn_records == 0 &&
                      report.unmatched_clicks == 0 &&
                      log_stats.dropped_appends == 0;
  std::fprintf(stderr,
               "closed_loop: %llu impressions / %llu clicks appended, %zu / "
               "%zu read back, %llu dropped\n",
               static_cast<unsigned long long>(impressions),
               static_cast<unsigned long long>(clicks), report.impressions,
               report.clicks,
               static_cast<unsigned long long>(log_stats.dropped_appends));

  // Correctness 2: the final published snapshot equals a retrain from the
  // bootstrap corpus plus the sessions read back from the log.
  sqp::RecommenderEngine reference(sqp::EngineOptions{.num_threads = 1});
  sqp::Retrainer rebuilt(&reference, RetrainOptions(
                                         corpus, options.workdir + "/ref.blob"));
  SQP_CHECK_OK(rebuilt.Bootstrap(corpus.train));
  const std::vector<sqp::AggregatedSession> learned =
      sqp::SessionsFromFeedback(*records);
  if (!learned.empty()) {
    rebuilt.AppendSessions(learned);
    SQP_CHECK_OK(rebuilt.RetrainOnce());
  }
  std::vector<std::vector<sqp::QueryId>> probes;
  const size_t stride = std::max<size_t>(1, corpus.trace.size() / 4096);
  for (size_t i = 0; i < corpus.trace.size(); i += stride) {
    probes.push_back(corpus.trace[i].context);
  }
  for (size_t i = 0; i < learned.size() && i < 4096; ++i) {
    probes.emplace_back(learned[i].queries.begin(),
                        learned[i].queries.end() - 1);
  }
  size_t mismatches = 0;
  for (const std::vector<sqp::QueryId>& context : probes) {
    const sqp::ServeResult a =
        loop.engine->Recommend(context, kTopN, sqp::ServeOptions{});
    const sqp::ServeResult b =
        reference.Recommend(context, kTopN, sqp::ServeOptions{});
    if (!BitIdentical(a.recommendation, b.recommendation)) ++mismatches;
  }
  const std::shared_ptr<const sqp::CompactServingBase> served =
      loop.Compact();
  SQP_CHECK(served != nullptr);
  const bool stats_equal =
      served->Stats().memory_bytes ==
          reference.CurrentSnapshot()->Stats().memory_bytes &&
      served->num_nodes() ==
          dynamic_cast<const sqp::CompactServingBase&>(
              *reference.CurrentSnapshot())
              .num_nodes();
  std::fprintf(stderr,
               "closed_loop: final snapshot v%llu vs retrain from bootstrap "
               "+ %zu read-back sessions: %zu / %zu probes differ, layout %s\n",
               static_cast<unsigned long long>(served->version()),
               learned.size(), mismatches, probes.size(),
               stats_equal ? "equal" : "DIFFERS");
  result.correct = log_ok && mismatches == 0 && stats_equal &&
                   !cycle_s.empty();

  LoopStats fixed;
  LoopStats saturation;
  LoopStats traced;
  double matched_sum = 0.0;
  uint64_t matched_n = 0;
  std::vector<std::vector<sqp::ScoredQuery>> served_lists;
  for (ClientState& state : clients) {
    fixed.Merge(state.fixed);
    saturation.Merge(state.saturation);
    traced.Merge(state.traced);
    matched_sum += state.matched_sum;
    matched_n += state.matched_n;
    served_lists.insert(served_lists.end(), state.served_lists.begin(),
                        state.served_lists.end());
  }
  result.attempted = fixed.sent + saturation.sent + traced.sent;
  result.failed = fixed.failed + saturation.failed + traced.failed;

  if (!options.trace) {
    EndToEnd& e = result.e2e;
    e.setup_s = Median(setup);
    e.p50_us = fixed.latency.Quantile(0.5);
    e.capacity_rps = saturation.AnsweredPerSecond();
    // One context per request.
    e.items_per_s = e.capacity_rps;
    e.retrain_s = Median(cycle_s);
    e.hit_at_5 = static_cast<double>(fixed.hits) / fixed.sent;
    e.coverage = static_cast<double>(fixed.covered) / fixed.sent;
    e.model_mb = FileMb(persist);
    e.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "closed_loop: %.0f req/s offered over %zu clients (%llu "
                 "sent, %llu failed), p50 %.1f us, p90 %.1f us, p99 %.1f "
                 "us; saturation %.0f req/s; %zu retrain cycles, median "
                 "%.2f ms\n",
                 spec.rate_per_s, spec.client_threads,
                 static_cast<unsigned long long>(fixed.sent),
                 static_cast<unsigned long long>(fixed.failed), e.p50_us,
                 fixed.latency.Quantile(0.9), fixed.latency.Quantile(0.99),
                 e.capacity_rps,
                 cycle_s.size(), e.retrain_s * 1e3);
  } else {
    Layers& l = result.layers;
    const Breakdown b = Analyze(Tracer::Collect());
    l.trace_requests = static_cast<double>(b.requests);
    l.trace_coverage = b.Coverage();
    l.trace_overhead =
        traced.latency.Quantile(0.5) / fixed.latency.Quantile(0.5) - 1.0;
    fixed.latency.ReportTail(&l);
    l.gen_lag_us = b.SelfPerRequest(Layer::kGenLag) / 1e3;
    l.engine_self_us = b.SelfPerRequest(Layer::kEngine) / 1e3;
    l.walk_ns = b.MeanSpan(Layer::kWalk);
    l.walk_matched_len_mean =
        matched_n == 0 ? 0.0 : matched_sum / static_cast<double>(matched_n);
    l.feedback_append_us = b.MeanSpan(Layer::kFeedback) / 1e3;
    l.feedback_click_us = b.MeanSpan(Layer::kClick) / 1e3;
    l.feedback_appends = static_cast<double>(log_stats.impressions_appended +
                                             log_stats.clicks_appended);
    l.feedback_dropped = static_cast<double>(log_stats.dropped_appends);
    // Exploration rerank, replayed on the served lists (copy cost removed).
    std::vector<sqp::ScoredQuery> list;
    std::vector<double> propensities;
    int64_t copy_ns = 0;
    int64_t rerank_ns = 0;
    for (size_t round = 0; round < 20; ++round) {
      const int64_t t0 = NowNs();
      for (const auto& served_list : served_lists) list = served_list;
      const int64_t t1 = NowNs();
      uint64_t id = 1;
      for (const auto& served_list : served_lists) {
        list = served_list;
        explorer.Rerank(id++, &list, &propensities);
      }
      const int64_t t2 = NowNs();
      copy_ns += t1 - t0;
      rerank_ns += t2 - t1;
    }
    if (!served_lists.empty()) {
      l.explorer_rerank_ns =
          std::max<double>(0.0, static_cast<double>(rerank_ns - copy_ns)) /
          static_cast<double>(20 * served_lists.size());
    }
    const sqp::RetrainerStats retrainer = loop.retrainer->stats();
    l.retrain_consume_s = Median(consume_s);
    l.retrain_rebuild_s = Median(rebuild_s);
    l.retrain_rebuilds = static_cast<double>(retrainer.rebuilds);
    l.retrain_failures = static_cast<double>(retrainer.retrain_failures +
                                             retrainer.persist_failures);
    l.engine_snapshot_swaps = static_cast<double>(engine.snapshots_published);
    AddAdmission(engine.admission, static_cast<double>(engine.queries_served),
                 &l);
    std::vector<Step> steps(corpus.trace.begin(),
                            corpus.trace.begin() +
                                std::min<size_t>(4096, corpus.trace.size()));
    const WalkSplit split = TimeWalkSplit(*served, steps, 20);
    l.walk_descent_ns = split.descent_ns;
    l.walk_score_merge_ns = split.score_merge_ns;
    l.build_train_s = Median(setup);  // the whole Bootstrap
    std::fprintf(stderr,
                 "closed_loop traced: %zu requests, named layers cover "
                 "%.1f%% of request time, tracing overhead %+.1f%% on p50\n",
                 b.requests, 100.0 * l.trace_coverage,
                 100.0 * l.trace_overhead);
  }
  return result;
}

}  // namespace perfbench
