#include "mining/eclat.h"

#include <algorithm>
#include <vector>

#include "common/aligned.h"
#include "common/timer.h"
#include "data/bitmap_index.h"
#include "kernels/kernels.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace ossm {

namespace {

using TidList = std::vector<uint64_t>;

// One member of an equivalence class: the last item of the prefix+item
// itemset, the covering set of the whole itemset in the run's chosen
// representation (sorted tid-list or vertical bitmap), and its exact
// support (the tid-list length / bitmap popcount).
struct ClassMember {
  ItemId item;
  TidList tids;
  AlignedVector<uint64_t> bits;
  // Level-1 members in bitmap mode view their row in the shared
  // BitmapIndex (heap- or store-backed) instead of owning a copy; deeper
  // members own `bits`.
  const uint64_t* row = nullptr;
  uint64_t support = 0;
};

const uint64_t* RowOf(const ClassMember& m) {
  return m.row != nullptr ? m.row : m.bits.data();
}

struct SearchState {
  uint64_t min_support;
  uint32_t max_level;
  const CandidatePruner* pruner;
  std::vector<FrequentItemset>* out;
  MinerMetrics* metrics;
  bool use_bitmaps = false;
  uint32_t bitmap_words = 0;  // per-member row length in bitmap mode
};

// Two-pointer merge into the reserved output, with count-based early
// abandon: once the matches so far plus everything left on the shorter
// side cannot reach min_support, the join is provably infrequent and the
// merge stops. Returns false when abandoned (out is then meaningless);
// abandoned candidates are exactly the infrequent ones, so dropping them
// is lossless.
bool Intersect(const TidList& a, const TidList& b, uint64_t min_support,
               TidList* out) {
  out->clear();
  size_t ia = 0;
  size_t ib = 0;
  size_t na = a.size();
  size_t nb = b.size();
  out->reserve(std::min(na, nb));
  while (ia < na && ib < nb) {
    if (out->size() + std::min(na - ia, nb - ib) < min_support) {
      return false;
    }
    uint64_t ta = a[ia];
    uint64_t tb = b[ib];
    if (ta < tb) {
      ++ia;
    } else if (tb < ta) {
      ++ib;
    } else {
      out->push_back(ta);
      ++ia;
      ++ib;
    }
  }
  return true;
}

void Expand(SearchState& state, Itemset& prefix,
            const std::vector<ClassMember>& members);

// One outer-loop step of Expand: joins members[i] with every later member
// of its class and recurses into the resulting class. Exposed separately so
// the top level can fan the (independent) per-member subtrees out across
// threads.
void ExpandMember(SearchState& state, Itemset& prefix,
                  const std::vector<ClassMember>& members, size_t i) {
  uint32_t next_level = static_cast<uint32_t>(prefix.size() + 2);
  if (state.max_level != 0 && next_level > state.max_level) return;
  // At the frontier level the class produced here would be discarded
  // unexpanded, so don't materialize its covering sets at all.
  bool at_frontier = state.max_level != 0 && next_level == state.max_level;

  Itemset candidate;
  TidList intersection;
  AlignedVector<uint64_t> bits(state.use_bitmaps ? state.bitmap_words : 0);
  prefix.push_back(members[i].item);
  std::vector<ClassMember> next_class;
  for (size_t j = i + 1; j < members.size(); ++j) {
    state.metrics->CandidatesGenerated(next_level);

    if (state.pruner != nullptr) {
      candidate = prefix;
      candidate.push_back(members[j].item);
      PruneOutcome outcome =
          state.pruner->EvaluateCandidate(candidate, state.min_support);
      if (!outcome.admitted) {
        state.metrics->Rejected(next_level, outcome);
        continue;
      }
    }
    state.metrics->CandidatesCounted(next_level);
    if (state.use_bitmaps) {
      uint64_t support =
          at_frontier
              ? kernels::AndPopcount(RowOf(members[i]), RowOf(members[j]),
                                     state.bitmap_words)
              : kernels::AndCount(RowOf(members[i]), RowOf(members[j]),
                                  bits.data(), state.bitmap_words);
      if (support >= state.min_support) {
        state.metrics->Frequent(next_level);
        Itemset found = prefix;
        found.push_back(members[j].item);
        state.out->push_back({std::move(found), support});
        if (!at_frontier) {
          next_class.push_back({members[j].item, {}, bits, nullptr, support});
        }
      }
    } else {
      if (!Intersect(members[i].tids, members[j].tids, state.min_support,
                     &intersection)) {
        state.metrics->AbandonedJoin(next_level);
        continue;
      }
      if (intersection.size() >= state.min_support) {
        state.metrics->Frequent(next_level);
        Itemset found = prefix;
        found.push_back(members[j].item);
        state.out->push_back({std::move(found), intersection.size()});
        if (!at_frontier) {
          next_class.push_back({members[j].item, intersection, {}, nullptr,
                                intersection.size()});
        }
      }
    }
  }
  if (!next_class.empty()) {
    Expand(state, prefix, next_class);
  }
  prefix.pop_back();
}

// Expands the equivalence class of `prefix` (whose members are the
// frequent itemsets prefix ∪ {member.item}, already emitted). For each
// member, join with every later member to form the next class.
void Expand(SearchState& state, Itemset& prefix,
            const std::vector<ClassMember>& members) {
  for (size_t i = 0; i < members.size(); ++i) {
    ExpandMember(state, prefix, members, i);
  }
}

}  // namespace

StatusOr<MiningResult> MineEclat(const TransactionDatabase& db,
                                 const EclatConfig& config) {
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, config.min_support_count,
                      db.num_transactions());
  if (!threshold.ok()) return threshold.status();
  uint64_t min_support = *threshold;
  OSSM_TRACE_SPAN("eclat.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("eclat");

    // Pick the covering-set representation. In auto mode, bitmaps win once
    // every surviving tid-list (>= min_support tids at 8 bytes each) costs
    // at least as much as a bitmap row (num_transactions / 8 bytes) — i.e.
    // once min_support * 64 >= num_transactions.
    bool use_bitmaps;
    switch (config.representation) {
      case EclatRepresentation::kTidLists:
        use_bitmaps = false;
        break;
      case EclatRepresentation::kBitmaps:
        use_bitmaps = true;
        break;
      case EclatRepresentation::kAuto:
      default:
        use_bitmaps = min_support * 64 >= db.num_transactions();
        break;
    }
    // Verticalize in the chosen representation, one CSR scan either way.
    // Bitmap mode goes through BitmapIndex::Build, so the rows live in a
    // kBitmapRows segment of a mapped store under OSSM_STORAGE=mmap (heap
    // otherwise) with an identical word layout — level-1 covering sets
    // never consume heap proportional to the database.
    BitmapIndex index;
    std::vector<TidList> tid_lists;
    uint32_t bitmap_words = 0;
    {
      OSSM_TRACE_SPAN("eclat.verticalize");
      if (use_bitmaps) {
        index = BitmapIndex::Build(db);
        bitmap_words = index.words_per_row();
      } else {
        tid_lists.resize(db.num_items());
        for (uint64_t t = 0; t < db.num_transactions(); ++t) {
          for (ItemId item : db.transaction(t)) {
            tid_lists[item].push_back(t);
          }
        }
      }
      metrics.DatabaseScan();
    }

    SearchState state;
    state.min_support = min_support;
    state.max_level = config.max_level;
    state.pruner = config.pruner;
    state.out = &result.itemsets;
    state.metrics = &metrics;
    state.use_bitmaps = use_bitmaps;
    state.bitmap_words = bitmap_words;

    metrics.CandidatesGenerated(1, db.num_items());
    metrics.CandidatesCounted(1, db.num_items());

    std::vector<ClassMember> root_class;
    if (use_bitmaps) {
      for (ItemId item = 0; item < db.num_items(); ++item) {
        const uint64_t* row = index.row(item).data();
        uint64_t support = kernels::PopcountU64(row, bitmap_words);
        if (support >= min_support) {
          metrics.Frequent(1);
          result.itemsets.push_back({{item}, support});
          root_class.push_back({item, {}, {}, row, support});
        }
      }
    } else {
      for (ItemId item = 0; item < db.num_items(); ++item) {
        if (tid_lists[item].size() >= min_support) {
          metrics.Frequent(1);
          uint64_t support = tid_lists[item].size();
          result.itemsets.push_back({{item}, support});
          root_class.push_back(
              {item, std::move(tid_lists[item]), {}, nullptr, support});
        }
      }
    }

    // Feed the singleton supports to deduction-rule pruners before any
    // worker starts: ObserveSupport must not race the read-only
    // Evaluate calls made from the parallel subtree expansions below, and
    // this is the last single-threaded point. Deeper supports are never
    // observed here — a depth-first miner has no level barrier to observe
    // them at — so rules reach at most monotone/level-2 strength in Eclat.
    if (config.pruner != nullptr) {
      for (const FrequentItemset& f : result.itemsets) {
        config.pruner->ObserveSupport(f.items, f.support);
      }
    }

    // Each root-class member spawns an independent search subtree (its
    // equivalence class only joins with later members), so the top level
    // shards by member. Subtree sizes are wildly uneven — member 0 owns the
    // largest class — hence dynamic scheduling; outputs and tallies are
    // stored per member and merged in member order, so results and stats
    // are independent of thread count.
    size_t roots = root_class.size();
    if (parallel::NumShards(0, roots) <= 1) {
      Itemset prefix;
      Expand(state, prefix, root_class);
    } else {
      std::vector<std::vector<FrequentItemset>> member_out(roots);
      std::vector<MinerMetrics> member_metrics(roots,
                                               MinerMetrics("eclat"));
      parallel::ParallelForEach(roots, [&](uint64_t i) {
        SearchState local = state;
        local.out = &member_out[i];
        local.metrics = &member_metrics[i];
        Itemset prefix;
        ExpandMember(local, prefix, root_class, i);
      });
      for (size_t i = 0; i < roots; ++i) {
        result.itemsets.insert(
            result.itemsets.end(),
            std::make_move_iterator(member_out[i].begin()),
            std::make_move_iterator(member_out[i].end()));
        metrics.MergeFrom(member_metrics[i]);
      }
    }

    result.Canonicalize();
    metrics.Finish(&result.stats);
  }
  return result;
}

}  // namespace ossm
