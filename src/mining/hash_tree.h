#ifndef OSSM_MINING_HASH_TREE_H_
#define OSSM_MINING_HASH_TREE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/item.h"
#include "data/transaction_database.h"

namespace ossm {

// Receives one call per transaction of a CountCandidates scan: the shard
// that counted it, its index in the database, and the positions (in the
// candidate span) of the candidates it contains, in no particular order.
// Calls for different shards run concurrently; calls within a shard come in
// transaction order, and shards are contiguous transaction ranges in shard
// order (parallel::ParallelFor), so per-shard outputs concatenated in shard
// order equal a serial scan's.
using MatchVisitor = std::function<void(
    uint32_t shard, uint64_t transaction, std::span<const uint32_t> matched)>;

// The one counting pass every candidate-generation miner runs: the support
// of each candidate in `db`, in input order. One sharded scan counts every
// candidate, with one hash tree per run of equal-sized candidates (sort
// mixed sizes by size first, or each run gets its own small tree). Shards
// count into private state summed at the barrier, so the counts are
// bit-identical for any OSSM_THREADS. Candidates must be sorted itemsets.
//
// The counting structure lives only behind this call, and its cost stays
// proportional to the candidates counted: a candidate pruned by the Eq. (1)
// bound never enters the tree, which is what turns OSSM pruning into
// runtime. A structure whose cost is independent of the candidates (say, a
// triangular all-pairs array for C2) would erase that effect.
std::vector<uint64_t> CountCandidates(const TransactionDatabase& db,
                                      std::span<const Itemset> candidates,
                                      const MatchVisitor& on_match = {});

// The Agrawal-Srikant hash tree behind CountCandidates. Interior nodes hash
// on the item at their depth; leaves hold candidate lists that are matched
// by subset inclusion.
//
// The tree is immutable and does not own its candidates: it indexes the
// span it was built from, which must outlive it. All counting mutability
// (candidate counts, the per-leaf visit stamps that prevent double
// counting) lives in a CountingState, so threads can share one tree, each
// counting into its own state.
//
// All candidates must be sorted itemsets of the same size k >= 1.
class HashTree {
 public:
  // Thread-private counting scratch: per-candidate counts plus per-node
  // visit stamps. Obtain via MakeCountingState(), never share across
  // threads.
  struct CountingState {
    std::vector<uint64_t> counts;      // per candidate id
    std::vector<uint64_t> last_visit;  // per node id
    uint64_t visit_stamp = 0;
  };

  // Candidate ids are positions in `candidates`. `fanout` is the hash width
  // of interior nodes; a leaf splits once it exceeds `leaf_capacity`
  // entries (unless it is already at depth k, where it grows unbounded).
  explicit HashTree(std::span<const Itemset> candidates, uint32_t fanout = 8,
                    uint32_t leaf_capacity = 32);

  CountingState MakeCountingState() const;

  // Adds every candidate contained in the (sorted) transaction to
  // `state`'s counts and, when `matched` is given, appends their ids to it.
  // Safe to call from many threads at once as long as each owns its state.
  void CountTransaction(std::span<const ItemId> transaction,
                        CountingState* state,
                        std::vector<uint32_t>* matched = nullptr) const;

 private:
  struct Node {
    bool is_leaf = true;
    uint32_t depth = 0;
    std::vector<uint32_t> entries;   // candidate ids (leaf only)
    std::vector<int32_t> children;   // node ids, -1 = absent (interior only)
  };

  uint32_t HashItem(ItemId item) const { return item % fanout_; }
  void Insert(uint32_t node_id, uint32_t candidate_id);
  void SplitLeaf(uint32_t node_id);
  void Visit(uint32_t node_id, std::span<const ItemId> transaction,
             size_t start, uint64_t* counts, uint64_t* last_visit,
             uint64_t stamp, std::vector<uint32_t>* matched) const;

  uint32_t fanout_;
  uint32_t leaf_capacity_;
  uint32_t candidate_size_ = 0;
  std::span<const Itemset> candidates_;
  std::vector<Node> nodes_;
};

}  // namespace ossm

#endif  // OSSM_MINING_HASH_TREE_H_
