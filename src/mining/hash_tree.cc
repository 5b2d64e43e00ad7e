#include "mining/hash_tree.h"

#include <algorithm>

#include "common/logging.h"
#include "mining/itemset.h"
#include "parallel/thread_pool.h"

namespace ossm {

std::vector<uint64_t> CountCandidates(const TransactionDatabase& db,
                                      std::span<const Itemset> candidates,
                                      const MatchVisitor& on_match) {
  std::vector<uint64_t> counts(candidates.size(), 0);
  if (candidates.empty() && !on_match) return counts;

  // One tree per run of equal-sized candidates; a tree's ids plus its run's
  // first position are positions in `candidates`.
  std::vector<HashTree> trees;
  std::vector<uint32_t> run_begin;
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() &&
           candidates[j].size() == candidates[i].size()) {
      ++j;
    }
    trees.emplace_back(candidates.subspan(i, j - i));
    run_begin.push_back(static_cast<uint32_t>(i));
    i = j;
  }

  // Per-shard state is allocated before forking; pool workers only count.
  std::vector<std::vector<HashTree::CountingState>> states(
      parallel::NumShards(0, db.num_transactions()));
  for (std::vector<HashTree::CountingState>& shard_states : states) {
    for (const HashTree& tree : trees) {
      shard_states.push_back(tree.MakeCountingState());
    }
  }
  parallel::ParallelFor(
      0, db.num_transactions(),
      [&](uint32_t shard, uint64_t begin, uint64_t end) {
        std::vector<HashTree::CountingState>& shard_states = states[shard];
        std::vector<uint32_t> matched;
        std::vector<uint32_t>* matched_out = on_match ? &matched : nullptr;
        for (uint64_t t = begin; t < end; ++t) {
          std::span<const ItemId> txn = db.transaction(t);
          matched.clear();
          for (size_t r = 0; r < trees.size(); ++r) {
            size_t first = matched.size();
            trees[r].CountTransaction(txn, &shard_states[r], matched_out);
            for (size_t m = first; m < matched.size(); ++m) {
              matched[m] += run_begin[r];
            }
          }
          if (on_match) on_match(shard, t, matched);
        }
      });

  // Summation commutes, so the totals equal a serial scan's.
  for (const std::vector<HashTree::CountingState>& shard_states : states) {
    for (size_t r = 0; r < trees.size(); ++r) {
      const std::vector<uint64_t>& run = shard_states[r].counts;
      for (size_t c = 0; c < run.size(); ++c) {
        counts[run_begin[r] + c] += run[c];
      }
    }
  }
  return counts;
}

HashTree::HashTree(std::span<const Itemset> candidates, uint32_t fanout,
                   uint32_t leaf_capacity)
    : fanout_(fanout), leaf_capacity_(leaf_capacity), candidates_(candidates) {
  OSSM_CHECK_GE(fanout_, 2u);
  OSSM_CHECK_GE(leaf_capacity_, 1u);
  if (!candidates_.empty()) {
    candidate_size_ = static_cast<uint32_t>(candidates_[0].size());
    OSSM_CHECK_GE(candidate_size_, 1u);
  }
  nodes_.push_back(Node{});  // root: an empty leaf at depth 0
  for (uint32_t id = 0; id < candidates_.size(); ++id) {
    OSSM_CHECK_EQ(candidates_[id].size(), candidate_size_);
    OSSM_DCHECK(IsCanonicalItemset(candidates_[id]));
    Insert(0, id);
  }
}

void HashTree::Insert(uint32_t node_id, uint32_t candidate_id) {
  for (;;) {
    Node& node = nodes_[node_id];
    if (node.is_leaf) {
      node.entries.push_back(candidate_id);
      // A leaf at depth == k has consumed every item of the candidate; it
      // cannot discriminate further and is allowed to grow.
      if (node.entries.size() > leaf_capacity_ &&
          node.depth < candidate_size_) {
        SplitLeaf(node_id);
      }
      return;
    }
    uint32_t bucket = HashItem(candidates_[candidate_id][node.depth]);
    int32_t child = node.children[bucket];
    if (child < 0) {
      Node leaf;
      leaf.depth = node.depth + 1;
      child = static_cast<int32_t>(nodes_.size());
      nodes_[node_id].children[bucket] = child;
      nodes_.push_back(std::move(leaf));
    }
    node_id = static_cast<uint32_t>(child);
  }
}

void HashTree::SplitLeaf(uint32_t node_id) {
  std::vector<uint32_t> entries = std::move(nodes_[node_id].entries);
  nodes_[node_id].entries.clear();
  nodes_[node_id].is_leaf = false;
  nodes_[node_id].children.assign(fanout_, -1);
  for (uint32_t candidate_id : entries) {
    Insert(node_id, candidate_id);
  }
}

HashTree::CountingState HashTree::MakeCountingState() const {
  CountingState state;
  state.counts.assign(candidates_.size(), 0);
  state.last_visit.assign(nodes_.size(), 0);
  return state;
}

void HashTree::CountTransaction(std::span<const ItemId> transaction,
                                CountingState* state,
                                std::vector<uint32_t>* matched) const {
  if (candidates_.empty() || transaction.size() < candidate_size_) return;
  ++state->visit_stamp;
  Visit(0, transaction, 0, state->counts.data(), state->last_visit.data(),
        state->visit_stamp, matched);
}

void HashTree::Visit(uint32_t node_id, std::span<const ItemId> transaction,
                     size_t start, uint64_t* counts, uint64_t* last_visit,
                     uint64_t stamp, std::vector<uint32_t>* matched) const {
  const Node& node = nodes_[node_id];
  if (node.is_leaf) {
    // The same leaf can be reached along several hash paths within one
    // transaction; the stamp makes sure its candidates are counted once.
    if (last_visit[node_id] == stamp) return;
    last_visit[node_id] = stamp;
    for (uint32_t candidate_id : node.entries) {
      if (IsSubsetOf(candidates_[candidate_id], transaction)) {
        ++counts[candidate_id];
        if (matched != nullptr) matched->push_back(candidate_id);
      }
    }
    return;
  }
  // Interior: hash every remaining item that still leaves enough items to
  // complete a k-subset, and recurse past it.
  size_t remaining_needed = candidate_size_ - node.depth;
  if (transaction.size() < start + remaining_needed) return;
  size_t last = transaction.size() - remaining_needed;
  for (size_t i = start; i <= last; ++i) {
    int32_t child = node.children[HashItem(transaction[i])];
    if (child >= 0) {
      Visit(static_cast<uint32_t>(child), transaction, i + 1, counts,
            last_visit, stamp, matched);
    }
  }
}

}  // namespace ossm
