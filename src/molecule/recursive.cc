#include "molecule/recursive.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace mad {

Status ValidateRecursiveDescription(const Database& db,
                                    const RecursiveDescription& rd) {
  MAD_RETURN_IF_ERROR(db.GetAtomType(rd.atom_type).status());
  MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(rd.link_type));
  if (!lt->reflexive() || lt->first_atom_type() != rd.atom_type) {
    return Status::InvalidArgument(
        "recursive derivation needs a reflexive link type on '" +
        rd.atom_type + "'; '" + rd.link_type + "' connects <" +
        lt->first_atom_type() + ", " + lt->second_atom_type() + ">");
  }
  return Status::OK();
}

Result<RecursiveMolecule> DeriveRecursiveMoleculeFor(
    const Database& db, const RecursiveDescription& rd, AtomId root,
    std::optional<ReadView> view) {
  MAD_RETURN_IF_ERROR(ValidateRecursiveDescription(db, rd));
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(rd.atom_type));
  const bool root_present = view.has_value()
                                ? at->occurrence().ContainsAt(root, *view)
                                : at->occurrence().Contains(root);
  if (!root_present) {
    return Status::NotFound("atom #" + std::to_string(root.value) +
                            " is not in atom type '" + rd.atom_type + "'");
  }
  MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(rd.link_type));
  const LinkStore& store = lt->occurrence();
  const bool pinned = view.has_value() && !store.HeadVisibleAt(*view);

  RecursiveMolecule molecule(root);
  std::vector<AtomId> frontier = {root};
  int depth = 0;
  size_t links_traversed = 0;
  uint64_t rounds = 0;
  while (!frontier.empty() &&
         (rd.max_depth < 0 || depth < rd.max_depth)) {
    ++rounds;
    ScopedSpan round_span("closure-round",
                          [&] { return "depth " + std::to_string(depth); });
    round_span.set_rows_in(static_cast<int64_t>(frontier.size()));
    std::vector<AtomId> next;
    auto expand = [&](AtomId atom, AtomId partner) {
      // Record every traversed link; expand each atom once (cycle/DAG
      // sharing safety).
      ++links_traversed;
      molecule.AddLink(rd.direction == LinkDirection::kForward
                           ? Link{atom, partner}
                           : Link{partner, atom});
      if (molecule.AddMember(partner)) next.push_back(partner);
    };
    for (AtomId atom : frontier) {
      if (pinned) {
        for (AtomId partner : store.PartnersAt(atom, rd.direction, *view)) {
          expand(atom, partner);
        }
      } else {
        for (AtomId partner : store.Partners(atom, rd.direction)) {
          expand(atom, partner);
        }
      }
    }
    round_span.set_rows_out(static_cast<int64_t>(next.size()));
    if (next.empty()) break;
    molecule.AddLevel(next);
    frontier = std::move(next);
    ++depth;
  }
  static Counter& links_counter =
      Registry::Global().GetCounter("closure.links_traversed");
  static Counter& rounds_counter =
      Registry::Global().GetCounter("closure.rounds");
  links_counter.Add(links_traversed);
  rounds_counter.Add(rounds);
  return molecule;
}

Result<std::vector<RecursiveMolecule>> DeriveRecursiveMolecules(
    const Database& db, const RecursiveDescription& rd,
    std::optional<ReadView> view) {
  MAD_RETURN_IF_ERROR(ValidateRecursiveDescription(db, rd));
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(rd.atom_type));
  if (!view.has_value()) view = ReadView{db.current_epoch(), 0};
  std::vector<AtomId> roots;
  for (const Atom* atom : at->occurrence().SnapshotAt(*view)) {
    roots.push_back(atom->id);
  }
  ScopedSpan span("closure",
                  [&] { return rd.atom_type + " via " + rd.link_type; });
  span.set_rows_in(static_cast<int64_t>(roots.size()));
  span.set_rows_out(static_cast<int64_t>(roots.size()));
  std::vector<RecursiveMolecule> molecules;
  molecules.reserve(roots.size());
  for (AtomId root : roots) {
    MAD_ASSIGN_OR_RETURN(RecursiveMolecule m,
                         DeriveRecursiveMoleculeFor(db, rd, root, view));
    molecules.push_back(std::move(m));
  }
  return molecules;
}

Result<size_t> PropagateClosureLinks(Database& db,
                                     const RecursiveDescription& rd,
                                     const std::string& closure_name) {
  MAD_RETURN_IF_ERROR(ValidateRecursiveDescription(db, rd));
  MAD_ASSIGN_OR_RETURN(std::vector<RecursiveMolecule> molecules,
                       DeriveRecursiveMolecules(db, rd));
  MAD_RETURN_IF_ERROR(
      db.DefineLinkType(closure_name, rd.atom_type, rd.atom_type));
  size_t inserted = 0;
  for (const RecursiveMolecule& m : molecules) {
    for (size_t level = 1; level < m.levels().size(); ++level) {
      for (AtomId member : m.levels()[level]) {
        Status s = db.InsertLink(closure_name, m.root(), member);
        if (s.ok()) {
          ++inserted;
        } else if (s.code() != StatusCode::kAlreadyExists) {
          return s;
        }
      }
    }
  }
  return inserted;
}

}  // namespace mad
