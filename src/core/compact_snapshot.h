#ifndef SQP_CORE_COMPACT_SNAPSHOT_H_
#define SQP_CORE_COMPACT_SNAPSHOT_H_

#include <memory>
#include <span>
#include <vector>

#include "core/model_snapshot.h"
#include "core/pst.h"
#include "core/serve_kernels.h"

namespace sqp {

class SnapshotIo;  // core/snapshot_io.h: persists / restores the layout

/// Serves one request through serving::RecommendTopN over `m`, with the
/// engine's SIMD kernel dispatch and every buffer drawn from `scratch`.
/// The ranking of every packed snapshot funnels through here; callers
/// that want the sparse sort-merge serve a ModelRef copy with
/// dense_merge = false (bench/hot_path, the kernel equivalence suite).
Recommendation RecommendFromModel(const serving::ModelRef& m,
                                  std::span<const QueryId> context,
                                  size_t top_n, SnapshotScratch* scratch);

/// Parameters of the compact serving layout.
struct CompactOptions {
  /// Keep at most this many next-query entries per node (the highest-count
  /// ones; ties by ascending QueryId, i.e. a prefix of the node's
  /// descending-sorted count list), closed under the ancestor relation: a
  /// query kept in a node is also kept in every ancestor (its counts nest,
  /// so it is guaranteed to appear there). The closure means a candidate
  /// kept at the deepest path level that lists it accumulates *all* its
  /// per-level contributions — its served score is exactly the full
  /// model's score. (A query can still be truncated from a *deeper* node
  /// than the ones keeping it, in which case it serves with the deep
  /// contribution understated; the aggregate closure in KeptEntries pins
  /// the full model's own served lists to make that rare.) 0 = keep all.
  /// Serving top-N lists are preserved for N <= top_k on the bench corpora
  /// (tested; tab07_memory_footprint tracks the exact agreement rate in
  /// BENCH_memory.json). 0 also makes the packing exact: counts are never
  /// shifted, and the codes widen to u32 when a count outgrows 16 bits.
  /// Cost on top of the exact layout: one exact pack plus one top-K walk
  /// per node that has a node with more than top_k nexts on its root path
  /// (no walk at all when none truncates); exact packing pays neither.
  size_t top_k = 16;
};

/// Width-parameterized read-only views of the compact id pools. `QT` holds
/// query ids, `NT` node ids; the root index uses node id 0 (never a child)
/// as its absent sentinel.
template <typename QT, typename NT>
struct CompactPoolsView {
  std::span<const QT> next_query;
  std::span<const QT> edge_query;
  std::span<const NT> edge_child;
  /// Dense root fan-out index: query id -> depth-1 node, 0 if absent.
  std::span<const NT> root_child_by_query;

  uint64_t flat_bytes() const {
    return next_query.size_bytes() + edge_query.size_bytes() +
           edge_child.size_bytes() + root_child_by_query.size_bytes();
  }
};

/// The compact-layout serving algorithm, factored over *views* of the CSR
/// arrays so one implementation serves both storage variants:
///
///  - CompactSnapshot owns the arrays as vectors (built in memory from a
///    trained ModelSnapshot);
///  - MappedCompactSnapshot (core/snapshot_io.h) points the same spans at
///    a memory-mapped blob — a serving replica boots zero-copy.
///
/// Derived classes own the referenced storage and must keep it alive and
/// byte-stable for their whole lifetime; the mixture state (sigmas,
/// per-component escapes) is small and always owned here. The serving
/// arithmetic is identical through either storage, so a mapped replica is
/// bit-for-bit the snapshot it was written from.
class CompactServingBase : public ServingSnapshot {
 public:
  /// Mixture recommendation over the CSR tree (RecommendFromModel over
  /// model_ref()).
  Recommendation Recommend(std::span<const QueryId> context, size_t top_n,
                           SnapshotScratch* scratch) const override;

  bool Covers(std::span<const QueryId> context) const override;

  /// Longest-suffix matched depth of `context` — the descent without the
  /// ranking. Exposed so bench/hot_path can split one request's cost into
  /// walk vs score+merge.
  size_t MatchedDepth(std::span<const QueryId> context) const;

  /// Pre-sizing hint for the dense-accumulator walk (see ServingSnapshot).
  ScratchSizing ScratchHint() const override;

  size_t num_nodes() const { return total_count_.size(); }
  uint64_t num_entries() const {
    return next_code_.size() + next_code32_.size();
  }
  /// True when the count codes are u32 (exact packing of counts beyond
  /// 16 bits; written as blob format version 2).
  bool wide_codes() const { return !next_code32_.empty(); }
  uint64_t num_edges() const {
    return is_narrow_ ? narrow_view_.edge_query.size()
                      : wide_view_.edge_query.size();
  }
  const CompactOptions& options() const { return options_; }
  const std::vector<double>& sigmas() const { return sigmas_; }
  /// The walk layer's raw-pointer view of this model.
  const serving::ModelRef& model_ref() const { return model_; }

 protected:
  CompactServingBase() = default;

  using NarrowPoolsView = CompactPoolsView<uint16_t, uint16_t>;
  using WidePoolsView = CompactPoolsView<uint32_t, uint32_t>;

  /// Binds the runtime-free walk layer's ModelRef over the views and
  /// computes its bind-time derivatives (escape power tables, the dense
  /// accumulator bound, the scratch sizing hint). Both storage variants
  /// (owned vectors and mapped blob) must call this once their views are
  /// final — all serving then goes through serving::RecommendTopN, the
  /// exact same code path the slim embedded predictor runs.
  void FinalizeDerived();

  /// Exact bytes of the referenced arrays plus the owned mixture state —
  /// the shared ModelStats::memory_bytes math of both storage variants.
  uint64_t ServingBytes() const;

  CompactOptions options_;

  // Mixture state (always owned; a handful of doubles per component).
  MixtureWeighting weighting_ = MixtureWeighting::kGaussianEditDistance;
  std::vector<double> sigmas_;
  std::vector<double> component_escape_;  // default_escape per component

  // Views of the node arrays (see the layout diagram on CompactSnapshot).
  std::span<const uint32_t> next_begin_;   // size num_nodes + 1
  std::span<const uint32_t> child_begin_;  // size num_nodes + 1
  std::span<const uint32_t> total_count_;
  std::span<const uint32_t> start_count_;
  std::span<const uint8_t> count_shift_;
  /// Exactly one of the two mask views is populated: the narrow one when
  /// every component bit fits 16 bits (the default 11-component model),
  /// the wide one otherwise.
  std::span<const uint16_t> mask16_;
  std::span<const Pst::ViewMask> mask64_;

  /// Exactly one of the two pool view sets is populated (see the layout
  /// note on adaptive id widths).
  NarrowPoolsView narrow_view_;
  WidePoolsView wide_view_;
  bool is_narrow_ = false;

  /// Count codes, parallel to the active pools' next_query. Exactly one
  /// is populated (empty models aside): u16 codes, or the u32 codes of an
  /// exact packing whose counts outgrow 16 bits.
  std::span<const uint16_t> next_code_;
  std::span<const uint32_t> next_code32_;

  // ----- bind-time derivatives (FinalizeDerived) -----

  /// The walk layer's raw-pointer view of this model: every Recommend /
  /// Covers / MatchedDepth call funnels through it, so the engine serves
  /// byte-for-byte the arithmetic the slim predictor serves.
  serving::ModelRef model_;
  /// Backing storage of model_.escape_pow (row-major
  /// k x (serving::kEscapePowCap + 1) power tables).
  std::vector<double> escape_pow_;
};

/// The serving form of a trained MVMM: the shared multi-view PST
/// flattened into CSR-style struct-of-arrays storage (one contiguous pool
/// of next-query entries and one of child edges instead of per-node
/// std::vectors). Every snapshot the engines serve is one of these (or its
/// memory-mapped twin); ModelSnapshot is the training artifact it is
/// packed from.
///
/// Two packings, chosen by CompactOptions::top_k:
///  - exact (top_k = 0): every entry kept, counts never shifted. The codes
///    are u16 when every packed count fits 16 bits and u32 otherwise
///    (count_shift is then all zero and the blob is format version 2);
///  - footprint (top_k > 0): each node's nexts truncated to the top-K
///    continuations, and counts quantized to block-scaled 16-bit
///    fixed-point: each node stores a shift such that its largest count
///    fits 16 bits, entries store `count >> shift`. The quantized
///    probability of an entry is (code << shift) / total.
///
/// Per node the layout costs two CSR offsets, the count total, the escape
/// numerator, the block shift and the component-membership mask — no
/// contexts (the walk re-derives them), no vector headers:
///
///   node arrays (parallel, index = node id, 0 = root):
///     next_begin   u32    CSR offset into the nexts pool    \ 4 B
///     child_begin  u32    CSR offset into the edge pool     | 4 B
///     total_count  u32    Eq. 5 denominator                 | 4 B
///     start_count  u32    Eq. 6 escape numerator            | 4 B
///     count_shift  u8     entry dequantization block shift  | 1 B
///     view_mask    u16/u64  component membership bits       / 2-8 B
///   (19 B/node for the default 11-component model: the mask array is
///   16-bit wide whenever the model has at most 16 components)
///   nexts pool (top-K per node, count-descending; the root's prior is
///   not packed — serving never reads it):
///     next_query  u16/u32  +  next_code u16 (count >> shift)
///                             or u32 (exact count)          = 4-8 B / entry
///   edge pool (all children, query-ascending):
///     edge_query  u16/u32  +  edge_child u16/i32             = 4-8 B / edge
///   (id widths are adaptive: whenever every query id and node id fits 16
///   bits — true for corpora up to 65k distinct queries / tree nodes — the
///   pools and the dense root index store 16-bit ids)
///
/// versus ~96 B of Pst::Node header plus 16 B per entry in the full tree.
///
/// Equivalence: the exact packing reproduces the Pst-based reference walk
/// (tests/oracle/) bit for bit on any corpus whose counts fit 32 bits —
/// ids, score bits, matched_length and covered. The footprint packing is
/// exact too wherever a node's counts fit 16 bits (count_shift 0 — always
/// true on the bench corpora), so its rankings differ from the exact ones
/// only where top-K truncation removed a candidate; larger counts lose the
/// shifted-out low bits (scores move by at most 2^-16 relative per entry,
/// and sub-resolution counts clamp to one code step so observed
/// continuations keep a positive probability).
///
/// It is built *from* a trained ModelSnapshot (same node ids, sigmas and
/// weighting). Serving-only: ConditionalProb / MixtureWeights stay on the
/// ModelSnapshot, which keeps the tree.
///
/// The layout is also the unit of persistence: core/snapshot_io writes it
/// to a versioned memory-mappable blob and restores it either by copy
/// (back into this class) or zero-copy (MappedCompactSnapshot over the
/// mapped file).
class CompactSnapshot final : public CompactServingBase {
 public:
  /// Packs `full` into the compact layout. The result carries the same
  /// version tag and serves the reference walk's recommendations exactly
  /// at top_k = 0, and up to ancestor-closed top-K truncation and
  /// block-scaled 16-bit count rounding otherwise.
  static std::shared_ptr<const CompactSnapshot> FromSnapshot(
      const ModelSnapshot& full, const CompactOptions& options = {});

  /// Exact resident bytes of the flat arrays (Table VII scale, via
  /// core/memory_accounting.h).
  ModelStats Stats() const override;

 private:
  friend class SnapshotIo;  // (de)serializes the owned arrays verbatim

  CompactSnapshot() = default;

  /// Points the base-class serving views at the owned vectors. Must be
  /// called after every vector reached its final size/address (the views
  /// hold raw pointers into the vector storage).
  void BindViews();

  /// Width-parameterized owned id pools, mirroring CompactPoolsView.
  template <typename QT, typename NT>
  struct Pools {
    std::vector<QT> next_query;
    std::vector<QT> edge_query;
    std::vector<NT> edge_child;
    std::vector<NT> root_child_by_query;
  };
  using NarrowPools = Pools<uint16_t, uint16_t>;
  using WidePools = Pools<uint32_t, uint32_t>;

  // Owned storage behind the base-class views (same layout, same names
  // minus the own_ prefix).
  std::vector<uint32_t> own_next_begin_;
  std::vector<uint32_t> own_child_begin_;
  std::vector<uint32_t> own_total_count_;
  std::vector<uint32_t> own_start_count_;
  std::vector<uint8_t> own_count_shift_;
  std::vector<uint16_t> own_mask16_;
  std::vector<Pst::ViewMask> own_mask64_;
  NarrowPools narrow_;
  WidePools wide_;
  std::vector<uint16_t> own_next_code_;
  std::vector<uint32_t> own_next_code32_;
};

}  // namespace sqp

#endif  // SQP_CORE_COMPACT_SNAPSHOT_H_
