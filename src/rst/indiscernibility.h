#ifndef PPDP_RST_INDISCERNIBILITY_H_
#define PPDP_RST_INDISCERNIBILITY_H_

#include <cstddef>
#include <vector>

#include "rst/information_system.h"

namespace ppdp::rst {

/// A partition of the object set into equivalence classes; each inner vector
/// lists object indices in ascending order.
using Partition = std::vector<std::vector<size_t>>;

/// Equivalence classes of the H'-indiscernibility relation
/// (Definition 3.3.2) for the condition categories in `categories`. An empty
/// category set puts every object into one class.
Partition IndiscernibilityClasses(const InformationSystem& is,
                                  const std::vector<size_t>& categories);

/// H'-lower approximation of the object subset `target` (given as a
/// membership mask): objects whose whole equivalence class lies inside
/// `target` (Definition 3.3.3). Returned as a membership mask.
std::vector<bool> LowerApproximation(const InformationSystem& is,
                                     const std::vector<size_t>& categories,
                                     const std::vector<bool>& target);

/// H'-upper approximation: objects whose equivalence class intersects
/// `target`.
std::vector<bool> UpperApproximation(const InformationSystem& is,
                                     const std::vector<size_t>& categories,
                                     const std::vector<bool>& target);

/// H'-positive region of the decision attribute: the union of lower
/// approximations of every decision class (Definition 3.3.4). Returned as a
/// membership mask.
std::vector<bool> PositiveRegion(const InformationSystem& is,
                                 const std::vector<size_t>& categories);

/// Attribute dependency degree γ(H', D) = |POS_{H'}(D)| / |V|
/// (Equation 3.1).
double DependencyDegree(const InformationSystem& is, const std::vector<size_t>& categories);

/// Variable-precision (majority-consistency) dependency:
/// Σ_classes max_y |class ∩ y| / |V| — the accuracy of the majority decision
/// rule over the H'-partition. Unlike the strict positive-region γ, which
/// collapses to 0 on noisy data (no class is perfectly pure), this degrades
/// gracefully and is what the attribute-selection machinery ranks by. Its
/// floor is the majority-class fraction (empty category set) and its
/// ceiling is 1.
double MajorityDependencyDegree(const InformationSystem& is,
                                const std::vector<size_t>& categories);

/// Information gain of the H'-partition about the decision attribute:
/// H(D) − Σ_classes (|class|/|V|) · H(D | class), in nats. Unlike both the
/// strict γ (zero on noisy data) and the majority degree (flat under class
/// imbalance), this stays sensitive in all regimes and is what the
/// attribute-selection ranking uses.
double InformationGain(const InformationSystem& is, const std::vector<size_t>& categories);

/// True when the two partitions are identical (same blocks).
bool SamePartition(const Partition& a, const Partition& b);

}  // namespace ppdp::rst

#endif  // PPDP_RST_INDISCERNIBILITY_H_
