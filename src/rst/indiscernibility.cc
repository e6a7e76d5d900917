#include "rst/indiscernibility.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/math_util.h"

namespace ppdp::rst {

Partition IndiscernibilityClasses(const InformationSystem& is,
                                  const std::vector<size_t>& categories) {
  std::map<std::vector<AttributeValue>, std::vector<size_t>> groups;
  std::vector<AttributeValue> key(categories.size());
  for (size_t obj = 0; obj < is.num_objects(); ++obj) {
    for (size_t k = 0; k < categories.size(); ++k) key[k] = is.Value(obj, categories[k]);
    groups[key].push_back(obj);
  }
  Partition partition;
  partition.reserve(groups.size());
  for (auto& [unused_key, members] : groups) partition.push_back(std::move(members));
  // Canonical order: by first member.
  std::sort(partition.begin(), partition.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return partition;
}

std::vector<bool> LowerApproximation(const InformationSystem& is,
                                     const std::vector<size_t>& categories,
                                     const std::vector<bool>& target) {
  PPDP_CHECK(target.size() == is.num_objects());
  std::vector<bool> result(is.num_objects(), false);
  for (const auto& eq_class : IndiscernibilityClasses(is, categories)) {
    bool inside = std::all_of(eq_class.begin(), eq_class.end(),
                              [&](size_t obj) { return target[obj]; });
    if (!inside) continue;
    for (size_t obj : eq_class) result[obj] = true;
  }
  return result;
}

std::vector<bool> UpperApproximation(const InformationSystem& is,
                                     const std::vector<size_t>& categories,
                                     const std::vector<bool>& target) {
  PPDP_CHECK(target.size() == is.num_objects());
  std::vector<bool> result(is.num_objects(), false);
  for (const auto& eq_class : IndiscernibilityClasses(is, categories)) {
    bool intersects = std::any_of(eq_class.begin(), eq_class.end(),
                                  [&](size_t obj) { return target[obj]; });
    if (!intersects) continue;
    for (size_t obj : eq_class) result[obj] = true;
  }
  return result;
}

std::vector<bool> PositiveRegion(const InformationSystem& is,
                                 const std::vector<size_t>& categories) {
  std::vector<bool> result(is.num_objects(), false);
  for (const auto& eq_class : IndiscernibilityClasses(is, categories)) {
    Label first = is.Decision(eq_class.front());
    bool pure = std::all_of(eq_class.begin(), eq_class.end(),
                            [&](size_t obj) { return is.Decision(obj) == first; });
    if (!pure) continue;
    for (size_t obj : eq_class) result[obj] = true;
  }
  return result;
}

double DependencyDegree(const InformationSystem& is, const std::vector<size_t>& categories) {
  if (is.num_objects() == 0) return 0.0;
  std::vector<bool> pos = PositiveRegion(is, categories);
  size_t count = static_cast<size_t>(std::count(pos.begin(), pos.end(), true));
  return static_cast<double>(count) / static_cast<double>(is.num_objects());
}

double MajorityDependencyDegree(const InformationSystem& is,
                                const std::vector<size_t>& categories) {
  if (is.num_objects() == 0) return 0.0;
  size_t covered = 0;
  std::vector<size_t> counts(static_cast<size_t>(is.num_decisions()));
  for (const auto& eq_class : IndiscernibilityClasses(is, categories)) {
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t obj : eq_class) ++counts[static_cast<size_t>(is.Decision(obj))];
    covered += *std::max_element(counts.begin(), counts.end());
  }
  return static_cast<double>(covered) / static_cast<double>(is.num_objects());
}

double InformationGain(const InformationSystem& is, const std::vector<size_t>& categories) {
  if (is.num_objects() == 0) return 0.0;
  const double n = static_cast<double>(is.num_objects());
  std::vector<double> totals(static_cast<size_t>(is.num_decisions()), 0.0);
  for (size_t obj = 0; obj < is.num_objects(); ++obj) {
    totals[static_cast<size_t>(is.Decision(obj))] += 1.0;
  }
  double gain = Entropy(totals);
  std::vector<double> counts(static_cast<size_t>(is.num_decisions()));
  for (const auto& eq_class : IndiscernibilityClasses(is, categories)) {
    std::fill(counts.begin(), counts.end(), 0.0);
    for (size_t obj : eq_class) counts[static_cast<size_t>(is.Decision(obj))] += 1.0;
    gain -= (static_cast<double>(eq_class.size()) / n) * Entropy(counts);
  }
  return std::max(0.0, gain);
}

bool SamePartition(const Partition& a, const Partition& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace ppdp::rst
