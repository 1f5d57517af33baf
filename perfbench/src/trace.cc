#include "trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  /// Uncontended except against Collect, which may run while a serving
  /// thread the benchmark does not own (a shard's event loop) is alive.
  std::mutex mu;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<size_t> g_sample_every{1};
std::atomic<uint64_t> g_shared_request{0};
std::atomic<uint64_t> g_shared_parent{0};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local Tracer::Context t_context;
thread_local TransportWindow t_window;
thread_local size_t t_sample_count = 0;

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<uint32_t>(g_buffers.size());
    t_buffer->spans.reserve(1 << 16);
  }
  return t_buffer;
}

constexpr size_t Index(Layer layer) { return static_cast<size_t>(layer); }

class TracedTransport final : public sqp::net::Transport {
 public:
  TracedTransport(std::unique_ptr<sqp::net::Transport> inner,
                  FrameCapture* capture)
      : inner_(std::move(inner)), capture_(capture) {}

  sqp::Status Write(std::span<const uint8_t> data) override {
    if (!t_window.open) {
      t_window.open = true;
      t_window.start_ns = NowNs();
      t_window.end_ns = t_window.start_ns;
    }
    if (capture_ != nullptr && Tracer::enabled() &&
        capture_->requests.size() < capture_->max_frames) {
      capture_->requests.emplace_back(data.begin(), data.end());
    }
    const sqp::Status status = inner_->Write(data);
    t_window.end_ns = NowNs();
    return status;
  }

  sqp::Result<size_t> Read(uint8_t* out, size_t max) override {
    sqp::Result<size_t> read = inner_->Read(out, max);
    t_window.end_ns = NowNs();
    if (read.ok() && capture_ != nullptr && Tracer::enabled() &&
        capture_->responses.size() < capture_->max_frames) {
      (void)assembler_.Feed(std::span<const uint8_t>(out, *read));
      sqp::net::FrameHeader header;
      std::vector<uint8_t> body;
      bool ready = false;
      while (assembler_.Next(&header, &body, &ready).ok() && ready) {
        capture_->responses.push_back(std::move(body));
      }
    }
    return read;
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<sqp::net::Transport> inner_;
  FrameCapture* capture_;
  sqp::net::FrameAssembler assembler_;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetSampleEvery(size_t every) {
  g_sample_every.store(std::max<size_t>(every, 1), std::memory_order_relaxed);
}

bool Tracer::SampleRequest() {
  if (!enabled()) return false;
  return t_sample_count++ % g_sample_every.load(std::memory_order_relaxed) ==
         0;
}

uint64_t Tracer::NewId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const Span& span) {
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Tracer::SetLocal(Context context) { t_context = context; }

void Tracer::SetShared(Context context) {
  g_shared_parent.store(context.parent, std::memory_order_relaxed);
  g_shared_request.store(context.request, std::memory_order_release);
}

Tracer::Context Tracer::Current() {
  if (t_context.request != 0) return t_context;
  Context shared;
  shared.request = g_shared_request.load(std::memory_order_acquire);
  shared.parent = g_shared_parent.load(std::memory_order_relaxed);
  return shared;
}

TracedSnapshot::TracedSnapshot(
    std::shared_ptr<const sqp::ServingSnapshot> inner)
    : inner_(std::move(inner)) {
  version_ = inner_->version();
}

sqp::Recommendation TracedSnapshot::Recommend(
    std::span<const sqp::QueryId> context, size_t top_n,
    sqp::SnapshotScratch* scratch) const {
  const Tracer::Context owner =
      Tracer::enabled() ? Tracer::Current() : Tracer::Context{};
  if (owner.request == 0) return inner_->Recommend(context, top_n, scratch);
  Span span;
  span.start_ns = NowNs();
  sqp::Recommendation rec = inner_->Recommend(context, top_n, scratch);
  span.end_ns = NowNs();
  span.id = Tracer::NewId();
  span.parent = owner.parent;
  span.request = owner.request;
  span.layer = Layer::kWalk;
  Tracer::Record(span);
  return rec;
}

sqp::net::RouterClient::TransportFactory TracedTransportFactory(
    sqp::net::RouterClient::TransportFactory inner, FrameCapture* capture) {
  return [inner = std::move(inner), capture](uint32_t shard)
             -> sqp::Result<std::unique_ptr<sqp::net::Transport>> {
    sqp::Result<std::unique_ptr<sqp::net::Transport>> made = inner(shard);
    if (!made.ok()) return made.status();
    return std::unique_ptr<sqp::net::Transport>(
        new TracedTransport(std::move(made.value()), capture));
  };
}

TransportWindow TakeTransportWindow() {
  const TransportWindow window = t_window;
  t_window = TransportWindow{};
  return window;
}

double Breakdown::SelfPerRequest(Layer layer) const {
  return requests == 0 ? 0.0 : self_ns[Index(layer)] / requests;
}

double Breakdown::MeanSpan(Layer layer) const {
  const uint64_t n = spans[Index(layer)];
  return n == 0 ? 0.0 : span_ns[Index(layer)] / static_cast<double>(n);
}

double Breakdown::Coverage() const {
  if (request_ns <= 0.0) return 0.0;
  return 1.0 - self_ns[Index(Layer::kRequest)] / request_ns;
}

Breakdown Analyze(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.request != b.request ? a.request < b.request : a.id < b.id;
  });
  Breakdown out;
  std::unordered_map<uint64_t, size_t> index;
  std::vector<std::vector<size_t>> children;
  for (size_t begin = 0; begin < spans.size();) {
    size_t end = begin;
    while (end < spans.size() && spans[end].request == spans[begin].request) {
      ++end;
    }
    index.clear();
    children.assign(end - begin, {});
    for (size_t i = begin; i < end; ++i) index[spans[i].id] = i - begin;
    for (size_t i = begin; i < end; ++i) {
      const auto parent = index.find(spans[i].parent);
      if (spans[i].parent != 0 && parent != index.end()) {
        children[parent->second].push_back(i);
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const Span& span = spans[i];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>> covered;
      std::unordered_map<uint32_t, double> walk_by_thread;
      size_t walks = 0;
      for (const size_t c : children[i - begin]) {
        const Span& child = spans[c];
        const int64_t lo = std::max(child.start_ns, span.start_ns);
        const int64_t hi = std::min(child.end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
        if (child.layer == Layer::kWalk) {
          walk_by_thread[child.thread] +=
              static_cast<double>(child.end_ns - child.start_ns);
          ++walks;
        }
      }
      std::sort(covered.begin(), covered.end());
      double covered_ns = 0.0;
      int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : covered) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) {
          covered_ns += static_cast<double>(hi - from);
          reach = hi;
        }
      }
      out.self_ns[Index(span.layer)] += duration - covered_ns;
      out.span_ns[Index(span.layer)] += duration;
      ++out.spans[Index(span.layer)];
      if (span.layer == Layer::kRequest && span.parent == 0) {
        out.request_ns += duration;
        ++out.requests;
      }
      if (span.layer == Layer::kEngine && walks > 1) {
        double slowest = 0.0;
        for (const auto& [thread, walk_ns] : walk_by_thread) {
          out.lane_walk_ns += walk_ns;
          slowest = std::max(slowest, walk_ns);
        }
        out.batch_ns += duration;
        out.batch_overhead_ns += duration - slowest;
        ++out.batches;
      }
    }
    begin = end;
  }
  return out;
}

WireCost TimeWireFormat(const FrameCapture& capture, size_t rounds) {
  WireCost cost;
  const size_t n = std::min(capture.requests.size(), capture.responses.size());
  if (n == 0 || rounds == 0) return cost;
  std::vector<sqp::net::WireRequest> requests(n);
  std::vector<sqp::net::WireResponse> responses(n);
  size_t items = 0;
  int64_t decode_ns = 0;
  int64_t encode_ns = 0;
  std::vector<uint8_t> frame;
  for (size_t round = 0; round < rounds; ++round) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const std::vector<uint8_t>& whole = capture.requests[i];
      SQP_CHECK(whole.size() >= sqp::net::kFramePreludeBytes);
      SQP_CHECK_OK(sqp::net::DecodeRequestBody(
          std::span<const uint8_t>(whole).subspan(
              sqp::net::kFramePreludeBytes),
          &requests[i]));
      SQP_CHECK_OK(sqp::net::DecodeResponseBody(capture.responses[i],
                                                &responses[i]));
    }
    int64_t t1 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      sqp::net::EncodeRequestFrame(requests[i], &frame);
      sqp::net::EncodeResponseFrame(responses[i], &frame);
    }
    const int64_t t2 = NowNs();
    decode_ns += t1 - t0;
    encode_ns += t2 - t1;
  }
  for (size_t i = 0; i < n; ++i) items += requests[i].contexts.size();
  const double per = static_cast<double>(items * rounds);
  cost.decode_ns_per_item = static_cast<double>(decode_ns) / per;
  cost.encode_ns_per_item = static_cast<double>(encode_ns) / per;
  return cost;
}

}  // namespace perfbench
