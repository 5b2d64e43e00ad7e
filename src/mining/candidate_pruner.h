#ifndef OSSM_MINING_CANDIDATE_PRUNER_H_
#define OSSM_MINING_CANDIDATE_PRUNER_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "core/generalized_ossm.h"
#include "core/segment_support_map.h"
#include "core/support_interval.h"
#include "data/item.h"

namespace ossm {

// Which bound source decided a candidate's fate. Single-bound pruners report
// a constant; the CombinedPruner attributes each rejection to the cheapest
// source that would have caught it on its own (OSSM first), so
// eliminated_by_ndi measures the deduction rules' *marginal* contribution.
enum class BoundSource : uint8_t {
  kNone = 0,  // nothing eliminated the candidate
  kOssm = 1,  // an equation-(1)-style segment bound
  kNdi = 2,   // a non-derivable-itemset deduction rule
};

// The full verdict on one candidate: admitted or not, the support interval
// the pruner can prove, and (on rejection) which bound was decisive. A miner
// that sees interval.Exact() on an admitted candidate holds its exact
// support already — the candidate is *derived* and never needs a counting
// pass (and, because admitted means upper >= min_support, a derived
// admitted candidate is always frequent).
struct PruneOutcome {
  bool admitted = true;
  SupportInterval interval;
  BoundSource eliminated_by = BoundSource::kNone;
};

// What a miner needs from a support-bounding structure: an upper bound on
// any candidate's support, and (optionally) exact singleton supports so the
// first counting pass can be skipped. The OSSM is one implementation; the
// interface is what makes the structure pluggable into Apriori, DHP,
// Partition, and any other candidate-generation algorithm (the generality
// claim of Sections 1 and 7). Pruners that can also prove *lower* bounds
// (deduction rules over already-counted subsets) override Bounds()/
// Evaluate() and receive exact supports back through ObserveSupport().
class CandidatePruner {
 public:
  virtual ~CandidatePruner() = default;

  virtual std::string_view name() const = 0;

  // An upper bound on sup(itemset). UINT64_MAX means "no information".
  // A miner discards the candidate when the bound is below its threshold —
  // which is lossless exactly because this is an upper bound.
  virtual uint64_t UpperBound(std::span<const ItemId> itemset) const = 0;

  // The support interval the pruner can prove. The default wraps UpperBound
  // with a trivial lower bound; interval-capable pruners override.
  virtual SupportInterval Bounds(std::span<const ItemId> itemset) const {
    return SupportInterval{0, UpperBound(itemset)};
  }

  // Full per-candidate verdict: interval, admission, and attribution.
  // Single-upper-bound pruners attribute every rejection to the OSSM side.
  // Miners call this once per candidate and tally the verdict per level in
  // MinerMetrics; the pruner itself keeps no tallies.
  virtual PruneOutcome Evaluate(std::span<const ItemId> itemset,
                                uint64_t min_support) const {
    PruneOutcome outcome;
    outcome.interval = Bounds(itemset);
    outcome.admitted = outcome.interval.upper >= min_support;
    if (!outcome.admitted) outcome.eliminated_by = BoundSource::kOssm;
    return outcome;
  }

  // Exact-support feedback: miners call this as supports become exactly
  // known (level-1 singletons, each level's counted or derived frequent
  // itemsets), letting deduction-rule pruners tighten later bounds. Default
  // ignores it. Contract: ObserveSupport must not race Evaluate — miners
  // observe from the coordinating thread at level barriers, never from
  // inside a parallel counting pass. Concurrent Evaluate calls (e.g.
  // Eclat's per-class workers) are fine: they are read-only.
  virtual void ObserveSupport(std::span<const ItemId> /*itemset*/,
                              uint64_t /*support*/) const {}

  // Exact supports of all singletons, or an empty span if unavailable. When
  // available, Apriori derives L1 with no database scan.
  virtual std::span<const uint64_t> ExactSingletonSupports() const {
    return {};
  }
};

// No pruning: every bound is "unknown". Baseline ("without the OSSM").
class NullPruner : public CandidatePruner {
 public:
  std::string_view name() const override { return "none"; }
  uint64_t UpperBound(std::span<const ItemId>) const override {
    return UINT64_MAX;
  }
};

// Equation (1) pruning backed by a segment support map. Does not own the
// map; the map must outlive the pruner and match the mined database.
class OssmPruner : public CandidatePruner {
 public:
  explicit OssmPruner(const SegmentSupportMap* map);

  std::string_view name() const override { return "OSSM"; }
  uint64_t UpperBound(std::span<const ItemId> itemset) const override;
  std::span<const uint64_t> ExactSingletonSupports() const override;

 private:
  const SegmentSupportMap* map_;
};

// Pruning backed by a generalized (pair-augmented) OSSM — footnote 3.
class GeneralizedOssmPruner : public CandidatePruner {
 public:
  explicit GeneralizedOssmPruner(const GeneralizedOssm* map);

  std::string_view name() const override { return "OSSM+pairs"; }
  uint64_t UpperBound(std::span<const ItemId> itemset) const override;
  std::span<const uint64_t> ExactSingletonSupports() const override;

 private:
  const GeneralizedOssm* map_;
};

}  // namespace ossm

#endif  // OSSM_MINING_CANDIDATE_PRUNER_H_
