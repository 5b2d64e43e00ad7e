#include "mining/depth_project.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"

namespace ossm {

namespace {

// Mutable state threaded through the depth-first search.
struct SearchState {
  const TransactionDatabase* db;
  uint64_t min_support;
  uint32_t max_level;
  const CandidatePruner* pruner;

  std::vector<FrequentItemset>* out;
  // Per-depth accounting (depth d -> level d+1 patterns).
  MinerMetrics* metrics;
};

// Expands the node `prefix` (already emitted) whose projection is
// `transactions`. `first_extension` is the smallest item id allowed as an
// extension (lexicographic tree: extensions grow to the right only).
void Expand(SearchState& state, Itemset& prefix,
            const std::vector<uint64_t>& transactions,
            ItemId first_extension) {
  uint32_t next_level = static_cast<uint32_t>(prefix.size() + 1);
  if (state.max_level != 0 && next_level > state.max_level) return;
  if (first_extension >= state.db->num_items()) return;

  // Which extensions are worth counting? Bound-check each candidate item
  // before the projection scan (the Section 7 integration). An extension
  // whose interval is exact is *derived*: its support is known (and above
  // threshold, since it was admitted), so the tally skips it entirely.
  std::vector<char> countable(state.db->num_items(), 0);
  std::vector<char> derived(state.db->num_items(), 0);
  std::vector<uint64_t> support(state.db->num_items(), 0);
  Itemset candidate = prefix;
  candidate.push_back(0);
  bool any_countable = false;
  bool any = false;
  for (ItemId e = first_extension; e < state.db->num_items(); ++e) {
    state.metrics->CandidatesGenerated(next_level);
    if (state.pruner != nullptr) {
      candidate.back() = e;
      PruneOutcome outcome =
          state.pruner->Evaluate(candidate, state.min_support);
      if (!outcome.admitted) {
        state.metrics->Rejected(next_level, outcome);
        continue;
      }
      if (outcome.interval.Exact()) {
        derived[e] = 1;
        support[e] = outcome.interval.lower;
        state.metrics->DerivedWithoutCounting(next_level);
        any = true;
        continue;
      }
    }
    countable[e] = 1;
    state.metrics->CandidatesCounted(next_level);
    any_countable = true;
    any = true;
  }
  if (!any) return;

  // One pass over the projection: tally every countable extension. The
  // counter lives on this node's frame because the recursion below re-enters
  // Expand for child nodes. `transactions` is exactly the supporting set of
  // `prefix`, so the tally is the extension's global support.
  if (any_countable) {
    for (uint64_t t : transactions) {
      for (ItemId item : state.db->transaction(t)) {
        if (item >= first_extension && countable[item]) ++support[item];
      }
    }
  }

  // Observe every frequent extension's exact support BEFORE recursing: the
  // DFS descends into prefix+e while later siblings' supports would
  // otherwise still be unknown, and the deduction rules for deeper
  // candidates lean exactly on those sibling supports.
  if (state.pruner != nullptr) {
    for (ItemId e = first_extension; e < state.db->num_items(); ++e) {
      if ((countable[e] || derived[e]) &&
          support[e] >= state.min_support) {
        candidate.back() = e;
        state.pruner->ObserveSupport(candidate, support[e]);
      }
    }
  }

  // Recurse on the frequent extensions in lexicographic order.
  for (ItemId e = first_extension; e < state.db->num_items(); ++e) {
    if (!(countable[e] || derived[e]) || support[e] < state.min_support) {
      continue;
    }

    prefix.push_back(e);
    state.out->push_back({prefix, support[e]});
    state.metrics->Frequent(next_level);

    // Project: keep the supporting transactions only.
    std::vector<uint64_t> projected;
    projected.reserve(support[e]);
    Itemset single = {e};
    for (uint64_t t : transactions) {
      if (state.db->Contains(t, single)) projected.push_back(t);
    }
    Expand(state, prefix, projected, e + 1);
    prefix.pop_back();
  }
}

}  // namespace

StatusOr<MiningResult> MineDepthProject(const TransactionDatabase& db,
                                        const DepthProjectConfig& config) {
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, config.min_support_count,
                      db.num_transactions());
  if (!threshold.ok()) return threshold.status();
  uint64_t min_support = *threshold;
  OSSM_TRACE_SPAN("depth_project.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("depth_project");

    SearchState state;
    state.db = &db;
    state.min_support = min_support;
    state.max_level = config.max_level;
    state.pruner = config.pruner;
    state.out = &result.itemsets;
    state.metrics = &metrics;

    // The root's projection is the whole database; singleton supports come
    // from the OSSM when available, otherwise from the root expansion scan.
    std::vector<uint64_t> all(db.num_transactions());
    for (uint64_t t = 0; t < db.num_transactions(); ++t) all[t] = t;
    metrics.DatabaseScan();  // the root expansion pass

    Itemset prefix;
    Expand(state, prefix, all, 0);

    result.Canonicalize();
    metrics.Finish(&result.stats);
  }
  return result;
}

}  // namespace ossm
