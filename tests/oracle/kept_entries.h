#ifndef SQP_TESTS_ORACLE_KEPT_ENTRIES_H_
#define SQP_TESTS_ORACLE_KEPT_ENTRIES_H_

// The reference truncation policy of the footprint packing
// (CompactSnapshot::FromSnapshot with top_k > 0), kept in its original
// straightforward form: per-node top-K, then one served top-K list for
// every tree node pinned at every ancestor that lists its queries
// (aggregate closure), then an ancestor sweep (ancestor closure), with
// per-node (query -> entry) hash maps. The pack-equivalence suite
// (tests/core/pack_equivalence_test.cc) requires the library's packing to
// keep exactly these entries, byte for byte in the saved blob.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model_snapshot.h"

namespace sqp::oracle {

/// Kept entry indices into each node's `nexts` (ascending), indexed by Pst
/// node id. The root keeps nothing.
std::vector<std::vector<uint32_t>> KeptEntries(const ModelSnapshot& full,
                                               size_t top_k);

}  // namespace sqp::oracle

#endif  // SQP_TESTS_ORACLE_KEPT_ENTRIES_H_
