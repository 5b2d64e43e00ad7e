#include "mining/association_rules.h"

#include <algorithm>
#include <unordered_map>

#include "mining/itemset.h"

namespace ossm {

namespace {

// Sorted set difference: full \ part (part ⊆ full).
Itemset Difference(const Itemset& full, const Itemset& part) {
  Itemset result;
  result.reserve(full.size() - part.size());
  std::set_difference(full.begin(), full.end(), part.begin(), part.end(),
                      std::back_inserter(result));
  return result;
}

}  // namespace

StatusOr<std::vector<AssociationRule>> GenerateRules(
    const std::vector<FrequentItemset>& frequent, uint64_t num_transactions,
    const RuleConfig& config) {
  // Negated so that NaN, which compares false with everything, fails too.
  if (!(config.min_confidence >= 0.0 && config.min_confidence <= 1.0)) {
    return Status::InvalidArgument("min_confidence must be in [0, 1]");
  }
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be positive");
  }

  std::unordered_map<Itemset, uint64_t, ItemsetHasher> support;
  support.reserve(frequent.size());
  for (const FrequentItemset& f : frequent) {
    support.emplace(f.items, f.support);
  }

  std::vector<AssociationRule> rules;
  for (const FrequentItemset& f : frequent) {
    if (f.items.size() < 2) continue;
    const Itemset& full = f.items;
    uint64_t full_support = f.support;

    // Level-wise consequent growth: start with singleton consequents,
    // join surviving consequents to grow them (anti-monotone pruning).
    std::vector<Itemset> consequents;
    for (ItemId item : full) consequents.push_back({item});

    uint32_t level = 1;
    while (!consequents.empty() && level < full.size() &&
           (config.max_consequent_size == 0 ||
            level <= config.max_consequent_size)) {
      std::vector<Itemset> survivors;
      for (const Itemset& consequent : consequents) {
        Itemset antecedent = Difference(full, consequent);
        auto it = support.find(antecedent);
        if (it == support.end()) {
          return Status::InvalidArgument(
              "frequent itemset list is not downward closed (missing "
              "antecedent support)");
        }
        double confidence = static_cast<double>(full_support) /
                            static_cast<double>(it->second);
        if (confidence < config.min_confidence) continue;

        auto consequent_support = support.find(consequent);
        if (consequent_support == support.end()) {
          return Status::InvalidArgument(
              "frequent itemset list is not downward closed (missing "
              "consequent support)");
        }
        AssociationRule rule;
        rule.antecedent = std::move(antecedent);
        rule.consequent = consequent;
        rule.support = full_support;
        rule.confidence = confidence;
        rule.lift = confidence /
                    (static_cast<double>(consequent_support->second) /
                     static_cast<double>(num_transactions));
        rules.push_back(std::move(rule));
        survivors.push_back(consequent);
      }

      // Grow consequents by the Apriori join over the survivors.
      std::sort(survivors.begin(), survivors.end(), ItemsetLess);
      std::vector<Itemset> next;
      Itemset joined;
      for (size_t i = 0; i < survivors.size(); ++i) {
        for (size_t j = i + 1; j < survivors.size(); ++j) {
          if (!JoinPrefix(survivors[i], survivors[j], &joined)) break;
          next.push_back(joined);
        }
      }
      consequents = std::move(next);
      ++level;
    }
  }

  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.antecedent != b.antecedent) {
                return ItemsetLess(a.antecedent, b.antecedent);
              }
              return ItemsetLess(a.consequent, b.consequent);
            });
  return rules;
}

}  // namespace ossm
