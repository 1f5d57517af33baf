#ifndef SQP_TESTS_ORACLE_PST_WALK_H_
#define SQP_TESTS_ORACLE_PST_WALK_H_

// The reference the equivalence suites compare served answers against:
// the MVMM ranking (paper Section IV-C.3) walked straight over a trained
// ModelSnapshot's Pst with exact 64-bit counts, pushed per entry and
// merged by a stable sort. It shares no code with the packed serving walk
// (core/serving_walk.h) beyond the Eq. 4 weighting, so a packing or
// ranking bug in the walk shows up as a score-bit mismatch here.
//
// Contract pinned by the suites: the exact packing
// (CompactSnapshot::FromSnapshot(model, {.top_k = 0})) serves every
// context bit-identically to this walk — ids, score bits, matched_length
// and covered — through the engine, through SnapshotIo::Map and through
// the slim predictor.

#include <memory>
#include <span>
#include <vector>

#include "core/compact_snapshot.h"
#include "core/model_snapshot.h"

namespace sqp::oracle {

/// Top-N recommendation for `context` off `model`'s Pst. Uncovered
/// contexts yield an empty, covered=false result.
Recommendation Recommend(const ModelSnapshot& model,
                         std::span<const QueryId> context, size_t top_n);

/// True iff the Pst matches at least the last context query.
bool Covers(const ModelSnapshot& model, std::span<const QueryId> context);

/// Deduplicates (query, score) contributions by query — summing each
/// query's contributions in push order — and fills the top-N ranking
/// (score desc, query asc).
void MergeAndRank(std::vector<ScoredQuery>* raw, size_t top_n,
                  Recommendation* rec);

/// The exact packing of `model`: what every serving path publishes.
inline std::shared_ptr<const CompactSnapshot> PackExact(
    const ModelSnapshot& model) {
  return CompactSnapshot::FromSnapshot(model, CompactOptions{.top_k = 0});
}

}  // namespace sqp::oracle

#endif  // SQP_TESTS_ORACLE_PST_WALK_H_
