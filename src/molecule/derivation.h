#ifndef MAD_MOLECULE_DERIVATION_H_
#define MAD_MOLECULE_DERIVATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "molecule/molecule_type.h"
#include "molecule/statistics.h"
#include "storage/database.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {

namespace expr {
class CompiledPredicate;
}  // namespace expr

/// Tuning knobs of the derivation engine.
struct DerivationOptions {
  DerivationOptions() = default;
  /// No-op, kept with `parallelism` only for the servebench sources, which
  /// still name them. Derivation always runs on the calling thread.
  explicit DerivationOptions(unsigned p) : parallelism(p) {}

  /// No-op (see the constructor above): nothing reads it.
  unsigned parallelism = 0;
  /// Pushed-down qualification: (node index, compiled program) pairs, at
  /// most one per node. Each program must reference only its own node
  /// (attributes or COUNT of that node — the optimizer's single-node
  /// conjuncts); it is evaluated the moment the node's group completes
  /// during derivation, and a false verdict (or error) rejects the whole
  /// molecule before downstream nodes expand. Because a group depends only
  /// on its ancestors (Def. 6 grows top-down), the verdict is identical to
  /// evaluating the conjunct on the fully derived molecule — pushdown
  /// changes *when* molecules are discarded, never *which*.
  std::vector<std::pair<size_t, const expr::CompiledPredicate*>> node_filters;
  /// Molecule-level residue of the WHERE clause (multi-node conjuncts,
  /// disjunctions, FORALL across nodes): evaluated over the completed
  /// groups of each molecule, before materialization.
  const expr::CompiledPredicate* residual = nullptr;
  // The compiled programs are borrowed and must outlive every derive call.
  /// Epoch pin: when set, derivation reads the versions visible at this view
  /// instead of the head (DESIGN.md §11). A store the view can read as-is
  /// (`HeadVisibleAt`) is still read through its head; any other is read
  /// through `SnapshotAt` (frozen when a derive call first reaches it) and
  /// `PartnersAt`. Pushed programs must then be compiled with the same view.
  /// nullopt keeps the zero-cost head path bit-for-bit.
  std::optional<ReadView> view;
};

/// The derivation engine behind m_dom (Def. 6): a molecule description
/// resolved against one database, plus a snapshot of the part of its atom
/// networks that derive calls have reached so far. Def. 6 grows a molecule
/// from its root along the description's directed links, so a derive call
/// first *admits* its roots, then grows the snapshot in topological order:
/// every atom admitted since the last growth gets a CSR-style adjacency row
/// on each outgoing description edge (dense partner indexes built from the
/// LinkStore), and its partners are admitted as they are found. A call
/// therefore costs the atoms reachable from its roots, not the size of each
/// atom type's occurrence. The snapshot persists across calls on one
/// engine, so repeated and overlapping calls only pay for atoms they reach
/// first. The per-root derivation loop does zero hashing and zero name
/// lookups, and output order never depends on which call admitted an atom:
/// groups follow edge-row order, which is LinkStore partner order.
///
/// Mutation contract: the database must not change between Create() and
/// the last derive call. Later calls resolve further atoms in the stores,
/// and the snapshot's rows point into them — the same contract the pushed
/// CompiledPredicate programs carry. Build a new engine after mutations, as
/// σ and the MQL session (which holds the reader lock for the whole
/// statement) do.
///
/// A derive call runs on the calling thread: one epoch-stamped scratch
/// workspace sized to the admitted atoms serves every root, so no per-root
/// allocation or clearing is needed, and molecules come out in root order.
class DerivationEngine {
 public:
  /// Resolves `md` against `db`: atom and link stores, topological order,
  /// in- and out-edges, pushed programs. Reads no atom or link.
  static Result<DerivationEngine> Create(const Database& db,
                                         const MoleculeDescription& md,
                                         DerivationOptions options = {});

  /// One molecule per root-atom-type atom, in occurrence order. Molecules
  /// rejected by pushed filters are omitted (the survivors keep occurrence
  /// order and are bit-identical to derive-then-restrict).
  Result<std::vector<Molecule>> DeriveAll(DerivationStats* stats = nullptr);

  /// Molecules for exactly `roots`, in the given order (filter rejections
  /// omitted). Every root is validated up front; invalid ids are reported
  /// together in one NotFound status.
  Result<std::vector<Molecule>> DeriveForRoots(
      const std::vector<AtomId>& roots, DerivationStats* stats = nullptr);

  /// The single molecule rooted at `root`.
  Result<Molecule> DeriveFor(AtomId root, DerivationStats* stats = nullptr);

 private:
  static constexpr uint32_t kUnadmitted = UINT32_MAX;

  /// One description node's share of the snapshot. An atom is admitted —
  /// given the next dense index — when a derive call first reaches it, as a
  /// root or as a partner.
  struct NodeSnapshot {
    const AtomStore* store = nullptr;
    /// The view cannot read the store's head as-is: occurrence positions
    /// index `visible`, the versions visible at the view, instead of the
    /// head.
    bool pinned = false;
    bool touched = false;
    /// Pinned only: SnapshotAt(view) and its id -> position map.
    std::vector<const Atom*> visible;
    std::unordered_map<AtomId, uint32_t> visible_position;
    /// Occurrence position -> dense index, kUnadmitted until admitted.
    std::vector<uint32_t> dense_of;
    /// Dense index -> atom id, in admission order.
    std::vector<AtomId> ids;
    /// Dense index -> atom row (same order as `ids`): pushed predicate
    /// programs read attribute values by index with no per-atom hashing.
    /// Borrowed from the store — see the mutation contract above.
    std::vector<const Atom*> rows;

    /// Sizes `dense_of` (and, when pinned, freezes `visible`) on first use.
    void Touch(const std::optional<ReadView>& view);
    /// Occurrence position of `id`, or nullopt when the occurrence (at the
    /// view) does not hold it. Requires Touch().
    std::optional<size_t> PositionOf(AtomId id) const;
    /// Dense index of the atom at `position`, admitting it on first sight.
    uint32_t Admit(size_t position);
  };
  /// One directed description edge as a CSR adjacency over dense indexes:
  /// row r (the `from_node` atom of dense index r) spans
  /// targets[offsets[r] .. offsets[r+1]), each entry the dense index of a
  /// partner atom of `to_node`. Rows exist for the first offsets.size() - 1
  /// admitted atoms. Row order preserves LinkStore::Partners order, which
  /// keeps the engine's output identical to the historical per-hop-lookup
  /// engine.
  struct EdgeSnapshot {
    size_t from_node = 0;
    size_t to_node = 0;
    const LinkStore* store = nullptr;
    LinkDirection direction = LinkDirection::kForward;
    bool pinned = false;  // read PartnersAt(view) instead of Partners()
    std::vector<size_t> offsets{0};
    std::vector<uint32_t> targets;
  };
  struct Workspace;

  DerivationEngine() = default;

  /// Gives every admitted atom without rows its row on each outgoing edge,
  /// node by node in topological order, admitting partners as found.
  void Grow();
  /// Derives the molecule for one root; nullopt when a pushed filter or the
  /// residual program rejected it, an error status when a program failed to
  /// evaluate.
  Result<std::optional<Molecule>> DeriveOne(uint32_t root_dense,
                                            Workspace& ws) const;
  Result<bool> CompleteNode(size_t node_idx, Workspace& ws) const;
  Workspace MakeWorkspace() const;
  Result<std::vector<Molecule>> FanOut(const std::vector<uint32_t>& roots,
                                       DerivationStats* stats) const;

  DerivationOptions options_;
  /// Per description node: options_.node_filters rearranged to node order
  /// (nullptr = unfiltered), plus which nodes need dense rows published for
  /// the binding loops of any program.
  std::vector<const expr::CompiledPredicate*> filters_by_node_;
  std::vector<bool> needs_rows_;
  bool filtering_ = false;
  std::vector<NodeSnapshot> nodes_;
  std::vector<EdgeSnapshot> edges_;
  std::vector<size_t> node_order_;  // node indexes in topo order, root first
  size_t root_node_ = 0;
  /// Per node: the indexes of the description edges into and out of it.
  std::vector<std::vector<uint32_t>> in_edges_;
  std::vector<std::vector<uint32_t>> out_edges_;
  std::string root_type_name_;  // for error messages
};

/// The function m_dom (Def. 6): derives every molecule matching `md` from
/// the database's atom networks — one molecule per atom of the root atom
/// type, grown by hierarchical join along the directed link types until the
/// leaves are reached, maximal per the `contained`/`total` predicates.
///
/// Multiple incoming description edges are *conjunctive* (the paper's
/// ∀-quantifier in `contained`): an atom of a node with k incoming directed
/// link types belongs to the molecule only if it is linked to contained
/// parent atoms through every one of the k edges.
Result<std::vector<Molecule>> DeriveMolecules(const Database& db,
                                              const MoleculeDescription& md,
                                              const DerivationOptions& options = {},
                                              DerivationStats* stats = nullptr);

/// Derives the single molecule rooted at `root` (which must be an atom of
/// the root atom type).
Result<Molecule> DeriveMoleculeFor(const Database& db,
                                   const MoleculeDescription& md, AtomId root);

/// Derives only the molecules rooted at `roots` (each must be an atom of
/// the root atom type) — the target of restriction pushdown: when a WHERE
/// conjunct is decidable on root attributes alone, the engine derives just
/// the qualifying roots instead of the whole occurrence. All roots are
/// validated before any derivation starts; a NotFound status names every
/// invalid id at once.
Result<std::vector<Molecule>> DeriveMoleculesForRoots(
    const Database& db, const MoleculeDescription& md,
    const std::vector<AtomId>& roots, const DerivationOptions& options = {},
    DerivationStats* stats = nullptr);

/// The operator molecule-type-definition a[mname, G](C) (Def. 8): pairs a
/// validated description with its derived occurrence.
Result<MoleculeType> DefineMoleculeType(const Database& db, std::string name,
                                        MoleculeDescription md,
                                        const DerivationOptions& options = {},
                                        DerivationStats* stats = nullptr);

/// Checks the mv_graph predicate (Def. 6) on an already-built molecule:
/// the instance graph must be directed, acyclic, coherent, rooted at the
/// molecule's root atom, and each atom/link must exist in the database
/// under the description's types. Used by tests and by Theorem-2 checks.
Status ValidateMolecule(const Database& db, const MoleculeDescription& md,
                        const Molecule& molecule);

}  // namespace mad

#endif  // MAD_MOLECULE_DERIVATION_H_
