#include "common.h"

#include <sys/resource.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

struct Named {
  const char* name;
  double value;
  const char* unit;
};

double Frac(double part, double base) { return base > 0.0 ? part / base : 0.0; }

std::vector<Named> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"p50_us", e.p50_us, "us"},
      {"capacity_rps", e.capacity_rps, "1/s"},
      {"items_per_s", e.items_per_s, "1/s"},
      {"retrain_s", e.retrain_s, "s"},
      {"hit_at_5", e.hit_at_5, "ratio"},
      {"coverage", e.coverage, "ratio"},
      {"model_mb", e.model_mb, "MB"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
  };
}

std::vector<Named> LayerMetrics(const Layers& l) {
  return {
      {"net.client_us", l.net_client_us, "us"},
      {"net.transport_us", l.net_transport_us, "us"},
      {"wire.encode_ns", l.wire_encode_ns, "ns"},
      {"wire.decode_ns", l.wire_decode_ns, "ns"},
      {"net.frames", l.net_frames, "count"},
      {"net.reconnects", l.net_reconnects, "count"},
      {"net.wire_errors", l.net_wire_errors, "count"},
      {"admission.attempted", l.admission_attempted, "count"},
      {"admission.admitted", l.admission_admitted, "count"},
      {"admission.shed", l.admission_shed, "count"},
      {"admission.expired", l.admission_expired, "count"},
      {"admission.degraded", l.admission_degraded, "count"},
      {"admission.admitted_frac",
       Frac(l.admission_admitted, l.admission_attempted), "ratio"},
      {"admission.shed_frac", Frac(l.admission_shed, l.admission_attempted),
       "ratio"},
      {"pool.lane_busy_frac", l.pool_lane_busy_frac, "ratio"},
      {"pool.items_per_s", l.pool_items_per_s, "1/s"},
      {"engine.batch_overhead_us", l.engine_batch_overhead_us, "us"},
      {"engine.self_us", l.engine_self_us, "us"},
      {"walk.ns", l.walk_ns, "ns"},
      {"walk.descent_ns", l.walk_descent_ns, "ns"},
      {"walk.score_merge_ns", l.walk_score_merge_ns, "ns"},
      {"walk.matched_len_mean", l.walk_matched_len_mean, "queries"},
      {"build.train_s", l.build_train_s, "s"},
      {"build.pack_s", l.build_pack_s, "s"},
      {"build.persist_s", l.build_persist_s, "s"},
      {"boot.load_s", l.boot_load_s, "s"},
      {"feedback.append_us", l.feedback_append_us, "us"},
      {"feedback.click_us", l.feedback_click_us, "us"},
      {"explorer.rerank_ns", l.explorer_rerank_ns, "ns"},
      {"feedback.appends", l.feedback_appends, "count"},
      {"feedback.dropped", l.feedback_dropped, "count"},
      {"feedback.dropped_frac",
       Frac(l.feedback_dropped, l.feedback_appends + l.feedback_dropped),
       "ratio"},
      {"retrain.consume_s", l.retrain_consume_s, "s"},
      {"retrain.rebuild_s", l.retrain_rebuild_s, "s"},
      {"retrain.rebuilds", l.retrain_rebuilds, "count"},
      {"retrain.failures", l.retrain_failures, "count"},
      {"engine.snapshot_swaps", l.engine_snapshot_swaps, "count"},
      {"latency.p90_us", l.latency_p90_us, "us"},
      {"latency.p99_us", l.latency_p99_us, "us"},
      {"gen.lag_us", l.gen_lag_us, "us"},
      {"trace.requests", l.trace_requests, "count"},
      {"trace.coverage", l.trace_coverage, "ratio"},
      {"trace.overhead", l.trace_overhead, "ratio"},
  };
}

}  // namespace

void PrintResult(const RunResult& result, bool trace) {
  const std::vector<Named> metrics =
      trace ? LayerMetrics(result.layers) : EndToEndMetrics(result.e2e);
  for (const Named& m : metrics) {
    std::fprintf(stderr, "  %-26s %16.6f %s\n", m.name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

double NearestRank(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t at =
      std::clamp<size_t>(static_cast<size_t>(rank), 1, values->size());
  return (*values)[at - 1];
}

}  // namespace

void AddAdmission(const sqp::AdmissionStats& admission, double attempted,
                  Layers* layers) {
  layers->admission_attempted += attempted;
  for (const sqp::LaneCounters& lane : admission.lanes) {
    layers->admission_admitted += static_cast<double>(lane.admitted);
    layers->admission_shed +=
        static_cast<double>(lane.shed_queue_full + lane.shed_deadline);
    layers->admission_expired +=
        static_cast<double>(lane.expired_in_queue + lane.expired_items);
    layers->admission_degraded += static_cast<double>(lane.degraded);
  }
}

double SetupLog::Median(double SetupTimes::*stage) const {
  std::vector<double> values;
  for (const SetupTimes& times : reps_) values.push_back(times.*stage);
  return perfbench::Median(std::move(values));
}

double SetupLog::RebuildMedian() const {
  std::vector<double> values;
  for (const SetupTimes& times : reps_) {
    values.push_back(times.train_s + times.pack_s + times.persist_s);
  }
  return perfbench::Median(std::move(values));
}

void LatencyLog::Append(const LatencyLog& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double LatencyLog::Quantile(double q) const {
  std::vector<double> values = samples_;
  return NearestRank(&values, q);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

uint64_t PerCoreL2Bytes() {
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return static_cast<uint64_t>(bytes);
  // Where the C library does not know it (some VMs and non-x86 hosts), the
  // kernel's description of cpu0's caches may.
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int index = 0; index < 16; ++index) {
    std::ifstream level(base + std::to_string(index) + "/level");
    int value = 0;
    if (!(level >> value)) break;
    if (value != 2) continue;
    std::ifstream size(base + std::to_string(index) + "/size");
    uint64_t amount = 0;
    char unit = 0;
    if (!(size >> amount)) return 0;
    size >> unit;
    return unit == 'K' ? amount << 10 : unit == 'M' ? amount << 20 : amount;
  }
  return 0;
}

namespace {

const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return allowed;
}

}  // namespace

size_t NumCpus() {
  return static_cast<size_t>(CPU_COUNT(&AllowedCpus()));
}

namespace {

/// The `slot`-th CPU the process may run on, or -1.
int CpuOfSlot(size_t slot) {
  size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &AllowedCpus())) continue;
    if (seen++ == slot) return cpu;
  }
  return -1;
}

}  // namespace

void PinThisThread(size_t slot) { PinThread(0, slot); }

void PinThread(pid_t tid, size_t slot) {
  const int cpu = CpuOfSlot(slot);
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(tid, sizeof(one), &one);
}

std::vector<pid_t> ProcessThreads() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  }
  return tids;
}

void UnpinThisThread() {
  pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &AllowedCpus());
}

void WaitUntil(Clock::time_point t) {
  // Spin rather than sleep, yielding to any thread that shares the core
  // (interactive_tcp's event loops). A sleeping generator leaves its vCPU
  // idle, and on a VM an idle vCPU woke from 0.1 to several ms late often
  // enough to set the 99th percentile of latency from the due time.
  while (Clock::now() < t) sched_yield();
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

WalkSplit TimeWalkSplit(const sqp::CompactServingBase& snapshot,
                        std::span<const Step> steps, size_t rounds) {
  WalkSplit split;
  if (steps.empty() || rounds == 0) return split;
  sqp::SnapshotScratch scratch;
  scratch.Prepare(snapshot.ScratchHint());
  size_t sink = 0;
  int64_t descent_ns = 0;
  int64_t walk_ns = 0;
  for (size_t round = 0; round < rounds; ++round) {
    const int64_t t0 = NowNs();
    for (const Step& step : steps) sink += snapshot.MatchedDepth(step.context);
    const int64_t t1 = NowNs();
    for (const Step& step : steps) {
      sink += snapshot.Recommend(step.context, 5, &scratch).queries.size();
    }
    const int64_t t2 = NowNs();
    descent_ns += t1 - t0;
    walk_ns += t2 - t1;
  }
  if (sink == 0) std::fprintf(stderr, "(walk split served nothing)\n");
  const double n = static_cast<double>(steps.size() * rounds);
  split.descent_ns = static_cast<double>(descent_ns) / n;
  split.score_merge_ns =
      std::max(0.0, static_cast<double>(walk_ns - descent_ns) / n);
  return split;
}

bool BitIdentical(const sqp::Recommendation& a,
                  const sqp::Recommendation& b) {
  if (a.covered != b.covered || a.matched_length != b.matched_length ||
      a.queries.size() != b.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].query != b.queries[i].query ||
        std::bit_cast<uint64_t>(a.queries[i].score) !=
            std::bit_cast<uint64_t>(b.queries[i].score)) {
      return false;
    }
  }
  return true;
}

bool Hit(const sqp::Recommendation& rec, sqp::QueryId next) {
  for (const sqp::ScoredQuery& q : rec.queries) {
    if (q.query == next) return true;
  }
  return false;
}

void FreshDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
