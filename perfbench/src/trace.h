#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span tracing for the traced run. Spans are recorded from outside the
// library, around calls into each layer's public functions, plus two
// decorators the benchmark installs at the library's own seams: a
// ServingSnapshot wrapper (the walk) and a net::Transport wrapper (the
// wire). Spans live in per-thread memory and are collected when the run
// ends; a layer's self time is its span minus the union of its children.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/model_snapshot.h"
#include "net/router_client.h"
#include "net/transport.h"
#include "net/wire_format.h"

namespace perfbench {

/// The layers a request is broken into. kRequest is the benchmark's own
/// per-request span (due time to completion); its self time is the part
/// of the request no named layer accounts for.
enum class Layer : uint8_t {
  kRequest,
  kGenLag,        // open-loop wait between due time and send
  kNetClient,     // RouterClient call
  kNetTransport,  // first Write to last Read of the exchange
  kEngine,        // RecommenderEngine Recommend / RecommendMany call
  kWalk,          // ServingSnapshot::Recommend (one context)
  kFeedback,      // FeedbackHook::OnServed
  kClick,         // FeedbackLog::RecordClick
  kCount,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;   // recording thread, numbered on first use
  Layer layer = Layer::kRequest;
};

int64_t NowNs();

/// Process-wide span store. Recording is off until Enable(true); when off,
/// every hook is a single relaxed load.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Trace one request in `every` (per thread); 1 traces all of them.
  static void SetSampleEvery(size_t every);
  /// Whether the calling thread's next request is traced.
  static bool SampleRequest();
  static uint64_t NewId();
  static void Record(const Span& span);
  /// All spans recorded so far (call once recording threads are idle).
  static std::vector<Span> Collect();

  /// The request a thread is currently serving. A thread-local context
  /// wins; threads that serve on someone else's behalf (shard event
  /// loops, worker-pool lanes) fall back to the shared one the request's
  /// owner publishes.
  struct Context {
    uint64_t request = 0;
    uint64_t parent = 0;
  };
  static void SetLocal(Context context);
  static void SetShared(Context context);
  static Context Current();
};

/// A ServingSnapshot decorator recording one kWalk span per served
/// context; published in place of the snapshot it wraps.
class TracedSnapshot final : public sqp::ServingSnapshot {
 public:
  explicit TracedSnapshot(std::shared_ptr<const sqp::ServingSnapshot> inner);

  sqp::Recommendation Recommend(std::span<const sqp::QueryId> context,
                                size_t top_n,
                                sqp::SnapshotScratch* scratch) const override;
  bool Covers(std::span<const sqp::QueryId> context) const override {
    return inner_->Covers(context);
  }
  sqp::ModelStats Stats() const override { return inner_->Stats(); }
  sqp::ScratchSizing ScratchHint() const override {
    return inner_->ScratchHint();
  }

 private:
  std::shared_ptr<const sqp::ServingSnapshot> inner_;
};

/// Request and response frames seen on the wire, kept for the offline
/// wire-format timing.
struct FrameCapture {
  size_t max_frames = 4096;
  std::vector<std::vector<uint8_t>> requests;   // whole frames
  std::vector<std::vector<uint8_t>> responses;  // bodies
};

/// Wraps a RouterClient transport factory so every connection records
/// its exchange window (see TakeTransportWindow) and, when `capture` is
/// set, the frames it carries.
sqp::net::RouterClient::TransportFactory TracedTransportFactory(
    sqp::net::RouterClient::TransportFactory inner, FrameCapture* capture);

/// The calling thread's transport window since the last call: first
/// Write start to last Read end. `open` is false when no byte moved.
struct TransportWindow {
  bool open = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
TransportWindow TakeTransportWindow();

/// Self-time breakdown of a set of traced requests.
struct Breakdown {
  size_t requests = 0;
  /// Summed over requests, per layer.
  std::array<double, static_cast<size_t>(Layer::kCount)> self_ns{};
  std::array<double, static_cast<size_t>(Layer::kCount)> span_ns{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> spans{};
  double request_ns = 0.0;  // summed kRequest durations
  /// Worker-pool view of kEngine spans that fanned out (their kWalk
  /// children ran on several threads).
  double lane_walk_ns = 0.0;       // summed walk time over every lane
  double batch_ns = 0.0;           // summed batch wall time
  double batch_overhead_ns = 0.0;  // summed (batch wall - slowest lane)
  size_t batches = 0;

  double SelfPerRequest(Layer layer) const;
  double MeanSpan(Layer layer) const;
  /// Share of request wall time covered by named layers.
  double Coverage() const;
};

Breakdown Analyze(std::vector<Span> spans);

/// Offline wire-format cost per item over captured frames: decode and
/// re-encode every request and response, `rounds` times.
struct WireCost {
  double encode_ns_per_item = 0.0;
  double decode_ns_per_item = 0.0;
};
WireCost TimeWireFormat(const FrameCapture& capture, size_t rounds);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
