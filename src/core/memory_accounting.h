#ifndef SQP_CORE_MEMORY_ACCOUNTING_H_
#define SQP_CORE_MEMORY_ACCOUNTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sqp {

/// Shared footprint accounting for ModelStats::memory_bytes (paper
/// Table VII). Every model computes its resident size through these helpers
/// so full and compact serving variants — and the hash-table baselines —
/// are charged on one consistent scale instead of ad-hoc per-model
/// arithmetic.

/// Per-slot bookkeeping overhead charged for node-based hash tables
/// (bucket pointer + hash next-link on the libstdc++ layout). The exact
/// value matters less than every table-based model using the same one.
inline constexpr uint64_t kHashSlotOverheadBytes = 16;

/// Flat-layout footprint of one PST node: the Pst::Node header plus its
/// context ids, next-query count entries and child edges (a shared
/// multi-view tree charges its per-node masks separately, see
/// Pst::memory_bytes).
uint64_t PstNodeBytes(size_t context_length, size_t num_nexts,
                      size_t num_children);

/// Footprint of a ContextEntry-keyed hash table: `num_states` slots (entry
/// header + hash-slot overhead), `num_key_ids` stored context query ids
/// across all keys, and `num_entries` next-query count entries.
uint64_t ContextTableBytes(uint64_t num_states, uint64_t num_entries,
                           uint64_t num_key_ids);

/// Exact resident bytes of one flat array (as used by the compact
/// serving-snapshot layout: size, not capacity, since compact pools are
/// shrunk to fit).
template <typename T>
uint64_t FlatBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.size()) * sizeof(T);
}

}  // namespace sqp

#endif  // SQP_CORE_MEMORY_ACCOUNTING_H_
