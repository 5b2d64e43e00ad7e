#ifndef OSSM_CORE_OSSM_UPDATER_H_
#define OSSM_CORE_OSSM_UPDATER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/segment_support_map.h"
#include "data/page_layout.h"

namespace ossm {

// Incremental maintenance of an OSSM as the collection grows. The OSSM is
// advertised as a compile-once, query-independent structure (Section 3);
// for that story to survive an append-mostly workload, new pages must fold
// into the existing map without a rebuild. Each incoming page is either
//  * merged into the existing segment that it degrades least (minimum
//    pairwise ossub against the incoming page — the same criterion RC and
//    Greedy optimize), or
//  * merged round-robin (the Random-algorithm analogue, O(1) per page).
// Appending never changes the segment count, so the map's footprint stays
// fixed while its counts stay exact for singletons.
enum class AppendPolicy {
  kRoundRobin,   // O(1) per page; the Random analogue
  kClosestFit,   // O(n m log m) per page; the RC/Greedy analogue
};

// Concurrency / consistency contract: the updater itself is
// single-threaded and unsynchronized — it mutates the map in place. When
// the map is simultaneously read by a serving path (serve::QueryEngine),
// every Append* call must run under that engine's exclusive hook
// (QueryEngine::WithMapExclusive), which takes the engine's writer lock
// against its shared-locked query reads. Appends only ever increase
// per-segment counts, so any bound the query path computed before, during
// (between two exclusive sections), or after an append still upper-bounds
// the supports of the transactions the map described at that moment:
// bound-rejects stay sound across concurrent growth. Singleton reads track
// the map, so they are exact for the grown collection only once the
// corresponding transactions are also visible to the exact tier.
class OssmUpdater {
 public:
  // Operates on a map in place. The map must be non-empty.
  explicit OssmUpdater(SegmentSupportMap* map);

  // Folds every page of `pages` into the map under the chosen policy.
  // Returns the segment each page was assigned to. Fails if the page item
  // domain does not match the map's.
  StatusOr<std::vector<uint32_t>> AppendPages(const PageItemCounts& pages,
                                              AppendPolicy policy);

  // Folds a single page (count vector over the map's item domain).
  StatusOr<uint32_t> AppendPage(std::span<const uint64_t> counts,
                                AppendPolicy policy);

  // The kRoundRobin assignment of page p is (cursor at construction + p)
  // mod num_segments. Crash-recovery replay (storage::StreamingIngest)
  // re-seeds the cursor to the number of pages already folded into a
  // checkpointed map so the replayed assignment matches the original run.
  void set_round_robin_cursor(uint64_t pages_folded) {
    round_robin_next_ = pages_folded;
  }
  uint64_t round_robin_cursor() const { return round_robin_next_; }

 private:
  SegmentSupportMap* map_;
  uint64_t round_robin_next_ = 0;
};

}  // namespace ossm

#endif  // OSSM_CORE_OSSM_UPDATER_H_
