#ifndef MAD_MOLECULE_STATISTICS_H_
#define MAD_MOLECULE_STATISTICS_H_

#include <string>
#include <vector>

#include "molecule/molecule_type.h"
#include "util/result.h"

namespace mad {

/// Size statistics of one description node across a molecule set.
struct NodeStats {
  std::string label;
  size_t min_atoms = 0;
  size_t max_atoms = 0;
  double avg_atoms = 0.0;
  /// Distinct atoms across the whole set vs occupied slots: slots exceed
  /// distinct atoms exactly when molecules share subobjects.
  size_t distinct_atoms = 0;
  size_t total_slots = 0;
};

/// Aggregate statistics of a molecule-type occurrence, including the
/// sharing factor (total atom slots / distinct atoms) that quantifies the
/// shared-subobject structure the MAD model exists to support.
struct MoleculeTypeStats {
  size_t molecule_count = 0;
  size_t min_atoms = 0;
  size_t max_atoms = 0;
  double avg_atoms = 0.0;
  size_t min_links = 0;
  size_t max_links = 0;
  double avg_links = 0.0;
  size_t distinct_atoms = 0;
  size_t total_atom_slots = 0;
  std::vector<NodeStats> nodes;

  /// 1.0 means fully disjoint molecules; larger values measure sharing.
  double sharing_factor() const {
    return distinct_atoms == 0
               ? 1.0
               : static_cast<double>(total_atom_slots) /
                     static_cast<double>(distinct_atoms);
  }
};

/// Computes occurrence statistics for a molecule type.
MoleculeTypeStats ComputeMoleculeTypeStats(const MoleculeType& mt);

/// Multi-line human-readable rendering.
std::string FormatMoleculeTypeStats(const MoleculeTypeStats& stats);

/// Counters recorded by one molecule-derivation run (DeriveMolecules /
/// DeriveMoleculesForRoots / DefineMoleculeType). Every field except
/// `wall_ms` is deterministic.
struct DerivationStats {
  /// Root atoms fanned out over (== molecules derived plus molecules
  /// rejected by pushed-down qualification).
  size_t roots = 0;
  /// Candidate atoms examined across all molecules (first discoveries per
  /// node, root slots included).
  size_t atoms_visited = 0;
  /// Adjacency entries scanned in the frozen CSR snapshot, over both the
  /// candidate-collection and the link-recording passes.
  size_t links_scanned = 0;
  /// Molecules discarded inside the fan-out by pushed-down qualification
  /// (per-node filters or the residual program) before materialization.
  /// Always 0 when no filters were pushed.
  size_t molecules_rejected = 0;
  /// End-to-end wall time of the derivation fan-out, snapshot build
  /// excluded. The only nondeterministic field.
  double wall_ms = 0.0;
};

}  // namespace mad

#endif  // MAD_MOLECULE_STATISTICS_H_
