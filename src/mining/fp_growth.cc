#include "mining/fp_growth.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"

namespace ossm {

namespace {

// One FP-tree node. Children are kept in a sibling-linked list keyed by
// item; the per-item chains (`next_same_item`) thread all nodes of an item
// together for conditional-base extraction.
struct FpNode {
  ItemId item = kInvalidItem;
  uint64_t count = 0;
  int32_t parent = -1;
  int32_t first_child = -1;
  int32_t next_sibling = -1;
  int32_t next_same_item = -1;
};

// An FP-tree over a (conditional) database. Items inside are *ranks*:
// dense ids in frequency order, so header tables are plain vectors.
class FpTree {
 public:
  explicit FpTree(uint32_t num_ranks)
      : header_(num_ranks, -1), rank_count_(num_ranks, 0) {
    nodes_.push_back(FpNode{});  // root
  }

  // Inserts a rank-sorted, duplicate-free path with the given count.
  void Insert(std::span<const ItemId> ranks, uint64_t count) {
    int32_t node = 0;
    for (ItemId rank : ranks) {
      int32_t child = FindChild(node, rank);
      if (child < 0) {
        child = static_cast<int32_t>(nodes_.size());
        FpNode fresh;
        fresh.item = rank;
        fresh.parent = node;
        fresh.next_sibling = nodes_[node].first_child;
        fresh.next_same_item = header_[rank];
        nodes_.push_back(fresh);
        nodes_[node].first_child = child;
        header_[rank] = child;
      }
      nodes_[child].count += count;
      rank_count_[rank] += count;
      node = child;
    }
  }

  uint32_t num_ranks() const {
    return static_cast<uint32_t>(header_.size());
  }
  uint64_t rank_support(ItemId rank) const { return rank_count_[rank]; }

  // Conditional pattern base of `rank`: for every node of the rank, the
  // path to the root with the node's count. Paths come out root-to-node.
  struct PathWithCount {
    std::vector<ItemId> ranks;
    uint64_t count;
  };
  std::vector<PathWithCount> ConditionalBase(ItemId rank) const {
    std::vector<PathWithCount> base;
    for (int32_t node = header_[rank]; node >= 0;
         node = nodes_[node].next_same_item) {
      PathWithCount path;
      path.count = nodes_[node].count;
      for (int32_t up = nodes_[node].parent; up > 0;
           up = nodes_[up].parent) {
        path.ranks.push_back(nodes_[up].item);
      }
      std::reverse(path.ranks.begin(), path.ranks.end());
      base.push_back(std::move(path));
    }
    return base;
  }

 private:
  int32_t FindChild(int32_t node, ItemId rank) const {
    for (int32_t child = nodes_[node].first_child; child >= 0;
         child = nodes_[child].next_sibling) {
      if (nodes_[child].item == rank) return child;
    }
    return -1;
  }

  std::vector<FpNode> nodes_;
  std::vector<int32_t> header_;      // rank -> first node of that rank
  std::vector<uint64_t> rank_count_; // rank -> total support in this tree
};

struct MiningContext {
  uint64_t min_support;
  uint32_t max_level;  // 0 = unlimited
  const std::vector<ItemId>* rank_to_item;
  std::vector<FrequentItemset>* out;
  MinerMetrics* metrics;
};

// Recursive FP-growth: for each rank in `tree` (ascending frequency order —
// ranks are assigned by descending frequency, so iterate from the highest
// rank id), emit suffix+rank and recurse on the conditional tree.
void Grow(const FpTree& tree, std::vector<ItemId>& suffix_ranks,
          const MiningContext& ctx) {
  for (int32_t r = static_cast<int32_t>(tree.num_ranks()) - 1; r >= 0; --r) {
    ItemId rank = static_cast<ItemId>(r);
    uint64_t support = tree.rank_support(rank);
    if (support < ctx.min_support) continue;

    suffix_ranks.push_back(rank);
    ctx.metrics->Frequent(static_cast<uint32_t>(suffix_ranks.size()));

    // Emit the pattern (translated back to item ids, sorted).
    Itemset items;
    items.reserve(suffix_ranks.size());
    for (ItemId sr : suffix_ranks) items.push_back((*ctx.rank_to_item)[sr]);
    std::sort(items.begin(), items.end());
    ctx.out->push_back({std::move(items), support});

    if (ctx.max_level == 0 || suffix_ranks.size() < ctx.max_level) {
      // Build the conditional tree for this rank and recurse.
      FpTree conditional(rank);  // only ranks < rank can precede it
      for (const FpTree::PathWithCount& path : tree.ConditionalBase(rank)) {
        conditional.Insert(path.ranks, path.count);
      }
      Grow(conditional, suffix_ranks, ctx);
    }

    suffix_ranks.pop_back();
  }
}

}  // namespace

StatusOr<MiningResult> MineFpGrowth(const TransactionDatabase& db,
                                    const FpGrowthConfig& config) {
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, config.min_support_count,
                      db.num_transactions());
  if (!threshold.ok()) return threshold.status();
  uint64_t min_support = *threshold;
  OSSM_TRACE_SPAN("fp_growth.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("fp_growth");

    // Pass 1: item supports; rank frequent items by descending support.
    std::vector<uint64_t> supports = db.ComputeItemSupports();
    metrics.DatabaseScan();

    std::vector<ItemId> rank_to_item;
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if (supports[item] >= min_support) rank_to_item.push_back(item);
    }
    std::stable_sort(rank_to_item.begin(), rank_to_item.end(),
                     [&](ItemId a, ItemId b) {
                       return supports[a] > supports[b];
                     });
    std::vector<ItemId> item_to_rank(db.num_items(), kInvalidItem);
    for (size_t r = 0; r < rank_to_item.size(); ++r) {
      item_to_rank[rank_to_item[r]] = static_cast<ItemId>(r);
    }

    // Pass 2: build the global FP-tree from rank-mapped transactions.
    FpTree tree(static_cast<uint32_t>(rank_to_item.size()));
    {
      OSSM_TRACE_SPAN("fp_growth.build_tree");
      std::vector<ItemId> ranks;
      for (uint64_t t = 0; t < db.num_transactions(); ++t) {
        ranks.clear();
        for (ItemId item : db.transaction(t)) {
          if (item_to_rank[item] != kInvalidItem) {
            ranks.push_back(item_to_rank[item]);
          }
        }
        std::sort(ranks.begin(), ranks.end());
        if (!ranks.empty()) tree.Insert(ranks, 1);
      }
      metrics.DatabaseScan();
    }

    MiningContext ctx{min_support, config.max_level, &rank_to_item,
                      &result.itemsets, &metrics};
    std::vector<ItemId> suffix;
    {
      OSSM_TRACE_SPAN("fp_growth.grow");
      Grow(tree, suffix, ctx);
    }

    result.Canonicalize();
    metrics.Finish(&result.stats);
  }
  return result;
}

}  // namespace ossm
