#include "core/greedy_segmentation.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "core/ossub.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace ossm {

namespace {

// Heap entry for the candidate merge of two segments. `version_*` pins the
// states of the segments at evaluation time; an entry is stale (and skipped
// on pop) if either segment has since been merged away or grown.
struct MergeCandidate {
  uint64_t loss;
  uint32_t seg_a;
  uint32_t seg_b;
  uint32_t version_a;
  uint32_t version_b;
};

// Min-heap order on loss, with ties broken on the full entry identity. The
// total order makes the pop sequence a function of the entry *set* alone —
// independent of insertion order — which is what keeps the merge sequence
// (and hence the final segmentation) identical across thread counts and
// across heapify-vs-incremental-push construction.
struct MergeCandidateGreater {
  bool operator()(const MergeCandidate& x, const MergeCandidate& y) const {
    if (x.loss != y.loss) return x.loss > y.loss;
    if (x.seg_a != y.seg_a) return x.seg_a > y.seg_a;
    if (x.seg_b != y.seg_b) return x.seg_b > y.seg_b;
    if (x.version_a != y.version_a) return x.version_a > y.version_a;
    return x.version_b > y.version_b;
  }
};

// Lazy-deletion binary heap over MergeCandidates that evicts stale entries
// once they dominate. Without eviction the heap retains all O(P^2) initial
// pairs for the whole run — quadratic memory on large page counts even
// though only O(alive^2) entries can still be valid.
//
// Staleness is tracked approximately but cheaply: refs_[s] counts live
// entries referencing segment s at its current version; when s merges or
// grows, those entries all become stale at once. An entry whose two
// endpoints are invalidated at different times is counted twice, so
// `stale_` is an overestimate (at most 2x) — compaction may fire early,
// never late, and the compaction pass itself recomputes exact counts.
class MergeHeap {
 public:
  explicit MergeHeap(size_t num_segments) : refs_(num_segments, 0) {}

  // Bulk-loads the initial pair entries (all valid) and heapifies.
  void Assign(std::vector<MergeCandidate> entries) {
    entries_ = std::move(entries);
    for (const MergeCandidate& entry : entries_) {
      ++refs_[entry.seg_a];
      ++refs_[entry.seg_b];
    }
    std::make_heap(entries_.begin(), entries_.end(),
                   MergeCandidateGreater());
    stale_ = 0;
  }

  void Push(const MergeCandidate& entry) {
    ++refs_[entry.seg_a];
    ++refs_[entry.seg_b];
    entries_.push_back(entry);
    std::push_heap(entries_.begin(), entries_.end(),
                   MergeCandidateGreater());
  }

  MergeCandidate Pop() {
    std::pop_heap(entries_.begin(), entries_.end(), MergeCandidateGreater());
    MergeCandidate top = entries_.back();
    entries_.pop_back();
    return top;
  }

  // The caller (who owns the dead/version arrays) reports what it popped.
  void NoteStalePopped() {
    if (stale_ > 0) --stale_;
  }
  void NoteValidPopped(const MergeCandidate& entry) {
    --refs_[entry.seg_a];
    --refs_[entry.seg_b];
  }

  // Marks every entry referencing `segment` (at its current version) stale.
  // Call when the segment dies or its version bumps, before pushing entries
  // against the new version.
  void InvalidateSegment(uint32_t segment) {
    stale_ += refs_[segment];
    refs_[segment] = 0;
  }

  // Evicts stale entries and re-heapifies once the stale estimate passes
  // half the heap. `is_valid` is the caller's dead/version check.
  template <typename Predicate>
  void MaybeCompact(const Predicate& is_valid) {
    if (entries_.size() < kCompactionFloor || stale_ * 2 <= entries_.size()) {
      return;
    }
    std::erase_if(entries_, [&](const MergeCandidate& entry) {
      return !is_valid(entry);
    });
    std::fill(refs_.begin(), refs_.end(), 0);
    for (const MergeCandidate& entry : entries_) {
      ++refs_[entry.seg_a];
      ++refs_[entry.seg_b];
    }
    std::make_heap(entries_.begin(), entries_.end(),
                   MergeCandidateGreater());
    stale_ = 0;
    ++compactions_;
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  uint64_t compactions() const { return compactions_; }

 private:
  // Below this size the O(P^2) retention is noise; skip the scan.
  static constexpr size_t kCompactionFloor = 1024;

  std::vector<MergeCandidate> entries_;
  std::vector<uint64_t> refs_;  // live entries per (segment, current version)
  size_t stale_ = 0;            // estimated stale entries in entries_
  uint64_t compactions_ = 0;
};

}  // namespace

StatusOr<std::vector<Segment>> GreedySegmenter::Run(
    std::vector<Segment> initial, const SegmentationOptions& options,
    SegmentationStats* stats) {
  OSSM_RETURN_IF_ERROR(
      internal_segmentation::ValidateInput(initial, options));
  OSSM_TRACE_SPAN("segment.greedy");
  WallTimer timer;
  uint64_t evaluations = 0;

  std::span<const ItemId> bubble(options.bubble);

  std::vector<Segment> segments = std::move(initial);
  size_t alive = segments.size();
  uint32_t n = static_cast<uint32_t>(segments.size());
  std::vector<uint32_t> version(n, 0);
  std::vector<char> dead(n, 0);

  MergeHeap heap(n);

  // S(s) of every segment (see core/ossub.h), so that each evaluation sorts
  // only the merged counts. Refreshed for the segment a merge grows.
  std::vector<uint64_t> pair_mins(n);
  for (uint32_t s = 0; s < n; ++s) {
    pair_mins[s] = PairMinSum(segments[s].counts, bubble);
  }
  auto loss_between = [&](uint32_t a, uint32_t b) {
    return PairwiseOssub(segments[a].counts, pair_mins[a], segments[b].counts,
                         pair_mins[b], bubble);
  };

  // Step 1 of Figure 2: all initial pairs. The O(P^2) evaluation pass is
  // sharded by row; per-row entry vectors are concatenated in row order, and
  // the heap's total order makes even that order immaterial.
  {
    std::vector<MergeCandidate> entries;
    if (n >= 2) entries.reserve(static_cast<size_t>(n) * (n - 1) / 2);
    if (parallel::NumShards(0, n) <= 1) {
      for (uint32_t a = 0; a < n; ++a) {
        for (uint32_t b = a + 1; b < n; ++b) {
          entries.push_back({loss_between(a, b), a, b, 0, 0});
        }
      }
    } else {
      // Row a costs n-a-1 evaluations — strongly uneven — so rows are
      // claimed dynamically; outputs are per-row, merged in row order.
      std::vector<std::vector<MergeCandidate>> rows(n);
      parallel::ParallelForEach(n, [&](uint64_t a) {
        std::vector<MergeCandidate>& row = rows[a];
        row.reserve(n - a - 1);
        uint32_t a32 = static_cast<uint32_t>(a);
        for (uint32_t b = a32 + 1; b < n; ++b) {
          row.push_back({loss_between(a32, b), a32, b, 0, 0});
        }
      });
      for (std::vector<MergeCandidate>& row : rows) {
        entries.insert(entries.end(), row.begin(), row.end());
      }
    }
    evaluations += entries.size();
    heap.Assign(std::move(entries));
  }

  auto entry_is_valid = [&](const MergeCandidate& entry) {
    return !dead[entry.seg_a] && !dead[entry.seg_b] &&
           version[entry.seg_a] == entry.version_a &&
           version[entry.seg_b] == entry.version_b;
  };

  // Step 2: merge down to the target.
  std::vector<uint32_t> survivors;
  std::vector<uint64_t> losses;
  while (alive > options.target_segments) {
    // Invariant: while alive > target >= 1 there are >= 2 live segments,
    // and every live pair (at current versions) has an entry — pushed by
    // the initial pass or by the merge that last changed one of its
    // endpoints — while compaction only ever removes stale entries. Hence
    // the heap cannot run dry before the target is reached.
    OSSM_CHECK(!heap.empty())
        << "greedy merge heap ran dry with " << alive
        << " live segments above target " << options.target_segments
        << "; a live pair lost its entry (lazy-deletion bookkeeping bug)";
    MergeCandidate top = heap.Pop();
    if (!entry_is_valid(top)) {
      heap.NoteStalePopped();
      continue;  // lazy deletion
    }
    heap.NoteValidPopped(top);

    // Merge b into a; a's version bumps (its counts changed), b dies. All
    // remaining entries touching either endpoint are now stale.
    MergeSegmentInto(segments[top.seg_a], std::move(segments[top.seg_b]));
    dead[top.seg_b] = 1;
    heap.InvalidateSegment(top.seg_b);
    ++version[top.seg_a];
    heap.InvalidateSegment(top.seg_a);
    --alive;
    if (alive <= options.target_segments) break;
    pair_mins[top.seg_a] = PairMinSum(segments[top.seg_a].counts, bubble);

    // Step 6: fresh losses between the merged segment and every survivor.
    // The evaluations are independent; shard them, then push in survivor
    // order (the heap's total order makes push order irrelevant anyway).
    survivors.clear();
    for (uint32_t other = 0; other < n; ++other) {
      if (dead[other] || other == top.seg_a) continue;
      survivors.push_back(other);
    }
    losses.assign(survivors.size(), 0);
    parallel::ParallelFor(
        0, survivors.size(),
        [&](uint32_t /*shard*/, uint64_t begin, uint64_t end) {
          for (uint64_t i = begin; i < end; ++i) {
            losses[i] = loss_between(top.seg_a, survivors[i]);
          }
        });
    evaluations += survivors.size();
    for (size_t i = 0; i < survivors.size(); ++i) {
      heap.Push({losses[i], top.seg_a, survivors[i], version[top.seg_a],
                 version[survivors[i]]});
    }

    heap.MaybeCompact(entry_is_valid);
  }

  std::vector<Segment> result;
  result.reserve(alive);
  for (size_t s = 0; s < segments.size(); ++s) {
    if (!dead[s]) result.push_back(std::move(segments[s]));
  }

  OSSM_COUNTER_ADD("segment.ossub_evaluations", evaluations);
  OSSM_COUNTER_ADD("segment.heap_compactions", heap.compactions());
  if (stats != nullptr) {
    stats->seconds = timer.ElapsedSeconds();
    stats->ossub_evaluations = evaluations;
    stats->heap_compactions = heap.compactions();
  }
  return result;
}

}  // namespace ossm
