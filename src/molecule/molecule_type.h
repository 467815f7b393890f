#ifndef MAD_MOLECULE_MOLECULE_TYPE_H_
#define MAD_MOLECULE_MOLECULE_TYPE_H_

#include <string>
#include <utility>
#include <vector>

#include "molecule/description.h"
#include "molecule/molecule.h"

namespace mad {

/// A molecule type (Def. 7): mt = <mname, md, mv> — name, description, and
/// molecule-type occurrence. Molecule types are values produced by the
/// molecule algebra; the occurrence is held explicitly (the propagation
/// function materialises it back into a Database when first-class atom
/// types are wanted, Def. 9).
class MoleculeType {
 public:
  MoleculeType(std::string name, MoleculeDescription description,
               MoleculeSet molecules)
      : name_(std::move(name)),
        description_(std::move(description)),
        molecules_(std::move(molecules)) {}
  /// Copies hand-built molecules, each with one group per description node,
  /// into the occurrence.
  MoleculeType(std::string name, MoleculeDescription description,
               const std::vector<Molecule>& molecules)
      : name_(std::move(name)),
        description_(std::move(description)),
        molecules_(molecules, description_.nodes().size()) {}

  /// mname
  const std::string& name() const { return name_; }
  /// md
  const MoleculeDescription& description() const { return description_; }
  /// mv
  const MoleculeSet& molecules() const { return molecules_; }
  /// mv, moved out of a molecule type that is going away, so an operator
  /// that owns its operand reuses the molecules instead of copying them.
  MoleculeSet TakeMolecules() && { return std::move(molecules_); }

  size_t size() const { return molecules_.size(); }
  bool empty() const { return molecules_.empty(); }

 private:
  std::string name_;
  MoleculeDescription description_;
  MoleculeSet molecules_;
};

}  // namespace mad

#endif  // MAD_MOLECULE_MOLECULE_TYPE_H_
