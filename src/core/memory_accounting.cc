#include "core/memory_accounting.h"

#include "core/pst.h"
#include "log/types.h"

namespace sqp {

uint64_t PstNodeBytes(size_t context_length, size_t num_nexts,
                      size_t num_children) {
  uint64_t bytes = sizeof(Pst::Node);
  bytes += static_cast<uint64_t>(context_length) * sizeof(QueryId);
  bytes += static_cast<uint64_t>(num_nexts) * sizeof(NextQueryCount);
  bytes += static_cast<uint64_t>(num_children) * sizeof(Pst::Edge);
  return bytes;
}

uint64_t ContextTableBytes(uint64_t num_states, uint64_t num_entries,
                           uint64_t num_key_ids) {
  return num_states * (sizeof(ContextEntry) + kHashSlotOverheadBytes) +
         num_key_ids * sizeof(QueryId) +
         num_entries * sizeof(NextQueryCount);
}

}  // namespace sqp
