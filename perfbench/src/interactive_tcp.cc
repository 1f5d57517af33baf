// interactive_tcp: single-context Recommend(top_n = 5) requests from one
// client thread (one RouterClient = one connection per shard) over TCP to
// a 2-shard fleet of ShardServers booted from a manifest, open-loop at a
// fixed Poisson rate, then a closed-loop saturation phase. The toy model
// stays in cache, so the wire, the event loops and per-request framing
// dominate. The client and both event loops share one core.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/snapshot_io.h"
#include "load.h"
#include "log/shard_partitioner.h"
#include "net/router_client.h"
#include "net/shard_server.h"
#include "net/tcp_transport.h"
#include "serve/sharded_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sqp::net::RouterClient;
using sqp::net::ShardServer;

constexpr uint32_t kShards = 2;
constexpr size_t kTopN = 5;
constexpr size_t kSetupReps = 31;
constexpr size_t kMaxSamples = 4096;

struct Fleet {
  std::string manifest;
  std::vector<std::string> blobs;
  /// Traced runs publish a TracedSnapshot into engines they own and serve
  /// them through StartWithEngine; untraced runs boot from the manifest.
  std::vector<std::unique_ptr<sqp::RecommenderEngine>> engines;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<RouterClient> router;

  void Stop() {
    router.reset();
    for (auto& server : servers) server->Stop();
    servers.clear();
    engines.clear();
  }
};

/// Corpus -> trained shards -> packed blobs + manifest -> booted servers
/// -> first answer through the router.
SetupTimes BootFleet(const Corpus& corpus, const std::string& manifest,
                     bool traced, FrameCapture* capture, Fleet* fleet) {
  SetupTimes times;
  const Clock::time_point t0 = Clock::now();
  sqp::ShardedTrainOptions train;
  train.model.default_max_depth = kMaxContext;
  train.num_shards = kShards;
  train.vocabulary_size = corpus.vocabulary_size;
  sqp::Result<sqp::ShardedTrainResult> trained =
      sqp::TrainShardedSnapshots(corpus.train, train);
  SQP_CHECK(trained.ok());
  const Clock::time_point t1 = Clock::now();
  std::vector<std::shared_ptr<const sqp::CompactSnapshot>> packed;
  for (const auto& shard : trained->shards) {
    packed.push_back(sqp::CompactSnapshot::FromSnapshot(*shard));
  }
  const Clock::time_point t2 = Clock::now();
  fleet->manifest = manifest;
  fleet->blobs.clear();
  for (uint32_t s = 0; s < kShards; ++s) {
    fleet->blobs.push_back(manifest + ".shard" + std::to_string(s));
    SQP_CHECK_OK(sqp::SnapshotIo::Save(*packed[s], fleet->blobs[s]));
  }
  SQP_CHECK_OK(sqp::WriteManifestForShardBlobs(manifest, kShards,
                                               trained->shards[0]->version()));
  const Clock::time_point t3 = Clock::now();
  std::vector<uint16_t> ports;
  for (uint32_t s = 0; s < kShards; ++s) {
    // The server's event loop inherits this thread's CPU: client and both
    // loops share one core (see PinThisThread).
    PinThisThread(0);
    auto server = std::make_unique<ShardServer>(
        sqp::net::ShardServerOptions{.engine = {.num_threads = 1}});
    if (traced) {
      auto mapped = sqp::SnapshotIo::Map(fleet->blobs[s]);
      SQP_CHECK(mapped.ok());
      fleet->engines.push_back(std::make_unique<sqp::RecommenderEngine>(
          sqp::EngineOptions{.num_threads = 1}));
      fleet->engines.back()->Publish(
          std::make_shared<TracedSnapshot>(std::move(mapped.value())));
      SQP_CHECK_OK(server->StartWithEngine(
          fleet->engines.back().get(), trained->shards[0]->version(), s));
    } else {
      SQP_CHECK_OK(server->StartFromManifest(manifest, s));
    }
    ports.push_back(server->port());
    fleet->servers.push_back(std::move(server));
  }
  const Clock::time_point t4 = Clock::now();
  RouterClient::TransportFactory factory =
      sqp::net::TcpTransportFactory("127.0.0.1", ports);
  if (traced) factory = TracedTransportFactory(std::move(factory), capture);
  fleet->router = std::make_unique<RouterClient>(kShards, std::move(factory));
  const sqp::ServeResult first =
      fleet->router->Recommend(corpus.trace.front().context, kTopN);
  SQP_CHECK(first.status == sqp::StatusCode::kOk);
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
  sqp::ServeResult served;
};

}  // namespace

RunResult RunInteractiveTcp(const RunOptions& options) {
  const Corpus corpus = MakeCorpus(ToyCorpus(), options.seed);
  const InteractiveTcpSpec spec;
  RunResult result;
  FrameCapture capture;

  // Set up several times; the last fleet serves the measured phases.
  Fleet fleet;
  SetupLog setup;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    fleet.Stop();
    PinThisThread(rep % NumCpus());
    setup.Add(BootFleet(
        corpus, options.workdir + "/fleet" + std::to_string(rep) + ".manifest",
        options.trace, &capture, &fleet));
  }

  std::vector<size_t> order(corpus.trace.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t cursor = 0;
  sqp::Rng sampler(SubSeed(options.seed, 11));
  std::vector<Sample> samples;
  double matched_sum = 0.0;
  uint64_t matched_n = 0;

  const auto serve = [&](size_t s, Clock::time_point due, uint64_t request) {
    const Step& step = corpus.trace[s];
    sqp::ServeOptions serve_options;
    serve_options.deadline = sqp::Deadline::At(
        due + std::chrono::microseconds(static_cast<int64_t>(spec.limit_us)));
    uint64_t client_id = 0;
    uint64_t transport_id = 0;
    int64_t call_start = 0;
    if (request != 0) {
      client_id = Tracer::NewId();
      transport_id = Tracer::NewId();
      Tracer::SetShared({.request = request, .parent = transport_id});
      TakeTransportWindow();
      call_start = NowNs();
    }
    sqp::ServeResult served =
        fleet.router->Recommend(step.context, kTopN, serve_options);
    Outcome outcome;
    outcome.done = Clock::now();
    if (request != 0) {
      const int64_t call_end = ToNs(outcome.done);
      Tracer::SetShared({});
      const TransportWindow window = TakeTransportWindow();
      Tracer::Record(Span{.id = client_id,
                          .parent = request,
                          .request = request,
                          .start_ns = call_start,
                          .end_ns = call_end,
                          .layer = Layer::kNetClient});
      if (window.open) {
        Tracer::Record(Span{.id = transport_id,
                            .parent = client_id,
                            .request = request,
                            .start_ns = window.start_ns,
                            .end_ns = window.end_ns,
                            .layer = Layer::kNetTransport});
      }
    }
    outcome.ok = served.status == sqp::StatusCode::kOk;
    outcome.covered = outcome.ok && served.recommendation.covered;
    outcome.hit = outcome.ok && Hit(served.recommendation, step.next);
    if (outcome.ok) {
      matched_sum += static_cast<double>(served.recommendation.matched_length);
      ++matched_n;
      if (samples.size() < kMaxSamples && sampler.Bernoulli(0.05)) {
        samples.push_back({s, std::move(served)});
      }
    }
    return outcome;
  };

  // Untraced: the fixed-rate phase, then closed-loop saturation. Traced:
  // the fixed-rate phase twice, recording off then on.
  const LoopPlan fixed_rate{.seconds = options.seconds *
                                       (options.trace ? 0.5 : 0.75),
                            .rate_per_s = spec.rate_per_s,
                            .seed = SubSeed(options.seed, 12),
                            .limit_us = spec.limit_us};
  const LoopStats fixed = RunLoop(order, &cursor, fixed_rate, serve);
  LoopStats saturation;
  LoopStats traced;
  if (!options.trace) {
    saturation = RunLoop(order, &cursor,
                         {.seconds = options.seconds * 0.25,
                          .limit_us = spec.limit_us},
                         serve);
  } else {
    Tracer::Enable(true);
    matched_sum = 0.0;
    matched_n = 0;
    LoopPlan repeat = fixed_rate;
    repeat.seed = SubSeed(options.seed, 13);
    traced = RunLoop(order, &cursor, repeat, serve);
    Tracer::Enable(false);
  }
  result.attempted = fixed.sent + saturation.sent + traced.sent;
  result.failed = fixed.failed + saturation.failed + traced.failed;

  // Correctness: every sampled answer must be bit-identical to an
  // in-process fleet booted from the same manifest.
  auto reference = sqp::ShardedEngine::BootFromManifest(
      fleet.manifest, sqp::ShardedEngineOptions{.num_threads = 1});
  SQP_CHECK(reference.ok());
  size_t mismatches = 0;
  for (const Sample& sample : samples) {
    const sqp::ServeResult& served = sample.served;
    const size_t top_n = served.degraded
                             ? served.recommendation.queries.size()
                             : kTopN;
    const sqp::ServeResult expected = (*reference)->Recommend(
        corpus.trace[sample.step].context, top_n, sqp::ServeOptions{});
    if (!BitIdentical(served.recommendation, expected.recommendation)) {
      ++mismatches;
    }
  }
  result.correct = mismatches == 0 && !samples.empty();
  std::fprintf(stderr,
               "interactive_tcp: %zu sampled answers replayed in-process, "
               "%zu mismatches\n",
               samples.size(), mismatches);

  double model_mb = 0.0;
  for (const std::string& blob : fleet.blobs) model_mb += FileMb(blob);

  if (!options.trace) {
    EndToEnd& e = result.e2e;
    e.setup_s = setup.Median(&SetupTimes::total_s);
    e.p50_us = fixed.latency.Quantile(0.5);
    e.capacity_rps = saturation.AnsweredPerSecond();
    // One context per request.
    e.items_per_s = e.capacity_rps;
    e.retrain_s = setup.RebuildMedian();
    e.hit_at_5 = static_cast<double>(fixed.hits) / fixed.sent;
    e.coverage = static_cast<double>(fixed.covered) / fixed.sent;
    e.model_mb = model_mb;
    e.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "interactive_tcp: %.0f req/s offered for %.2f s (%llu sent, "
                 "%llu failed), p50 %.1f us, p90 %.1f us, p99 %.1f us; "
                 "saturation %.0f req/s; gen lag %.2f us\n",
                 spec.rate_per_s, fixed.elapsed_s,
                 static_cast<unsigned long long>(fixed.sent),
                 static_cast<unsigned long long>(fixed.failed), e.p50_us,
                 fixed.latency.Quantile(0.9), fixed.latency.Quantile(0.99),
                 e.capacity_rps,
                 fixed.lag_us / fixed.sent);
  } else {
    Layers& l = result.layers;
    const Breakdown b = Analyze(Tracer::Collect());
    l.trace_requests = static_cast<double>(b.requests);
    l.trace_coverage = b.Coverage();
    l.trace_overhead =
        traced.latency.Quantile(0.5) / fixed.latency.Quantile(0.5) - 1.0;
    fixed.latency.ReportTail(&l);
    l.gen_lag_us = b.SelfPerRequest(Layer::kGenLag) / 1e3;
    l.net_client_us = b.SelfPerRequest(Layer::kNetClient) / 1e3;
    l.net_transport_us = b.SelfPerRequest(Layer::kNetTransport) / 1e3;
    l.walk_ns = b.MeanSpan(Layer::kWalk);
    l.walk_matched_len_mean =
        matched_n == 0 ? 0.0 : matched_sum / static_cast<double>(matched_n);
    const WireCost wire = TimeWireFormat(capture, 20);
    l.wire_encode_ns = wire.encode_ns_per_item;
    l.wire_decode_ns = wire.decode_ns_per_item;
    const sqp::net::RouterStats router = fleet.router->stats();
    l.net_reconnects = static_cast<double>(router.reconnects);
    l.net_wire_errors = static_cast<double>(router.wire_errors);
    double descent = 0.0;
    double score_merge = 0.0;
    size_t split_items = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      const sqp::net::ShardServerStats server = fleet.servers[s]->stats();
      l.net_frames += static_cast<double>(server.frames_served);
      l.net_wire_errors += static_cast<double>(server.connections_dropped);
      const sqp::EngineStats engine = fleet.engines[s]->stats();
      AddAdmission(engine.admission,
                   static_cast<double>(engine.batches_served), &l);
      // Descent vs score+merge, replayed on the contexts this shard owns.
      std::vector<Step> owned;
      for (const Step& step : corpus.trace) {
        if (sqp::ShardOfContext(step.context, kShards) == s) {
          owned.push_back(step);
        }
        if (owned.size() >= 4096) break;
      }
      auto mapped = sqp::SnapshotIo::Map(fleet.blobs[s]);
      SQP_CHECK(mapped.ok());
      const WalkSplit split = TimeWalkSplit(**mapped, owned, 20);
      descent += split.descent_ns * static_cast<double>(owned.size());
      score_merge += split.score_merge_ns * static_cast<double>(owned.size());
      split_items += owned.size();
    }
    l.walk_descent_ns = descent / static_cast<double>(split_items);
    l.walk_score_merge_ns = score_merge / static_cast<double>(split_items);
    l.build_train_s = setup.Median(&SetupTimes::train_s);
    l.build_pack_s = setup.Median(&SetupTimes::pack_s);
    l.build_persist_s = setup.Median(&SetupTimes::persist_s);
    l.boot_load_s = setup.Median(&SetupTimes::boot_s);
    std::fprintf(stderr,
                 "interactive_tcp traced: %zu requests, named layers cover "
                 "%.1f%% of request time, tracing overhead %+.1f%% on p50\n",
                 b.requests, 100.0 * l.trace_coverage,
                 100.0 * l.trace_overhead);
  }
  fleet.Stop();
  return result;
}

}  // namespace perfbench
