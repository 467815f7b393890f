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

/// Tuning knobs of the derivation engine, which are also the inputs of one
/// derive call: the options given to Create() serve the calls that take no
/// inputs of their own, and the calls that do take them replace all of
/// them (view, pushed filters, residual, scratch) for that call only.
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
  /// Where a call appends its molecules before it hands out their
  /// exact-size copy. A caller that keeps one across calls keeps its arrays
  /// allocated; nullptr uses one kept per thread (DESIGN.md §6).
  MoleculeSet* scratch = nullptr;
  // The compiled programs and the scratch set are borrowed and must outlive
  // every derive call that reads them.
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
/// Mutation contract: the snapshot's rows point into the stores Create()
/// resolved, so a derive call may run only while every one of them is
/// unchanged since Create() — the same head version (AtomStore and
/// LinkStore::head_version) — and reads the way the snapshot does at the
/// call's view. Within one statement the reader lock guarantees this.
/// Across statements, SnapshotCurrentAt() says whether it still holds: the
/// MQL session keeps the engine of an unseeded SELECT and derives later
/// SELECTs on it only while it does (DESIGN.md §6). Per-call inputs — the
/// view, the pushed filters and the residual, which point into one
/// statement's plan — are bound per derive call and never kept.
///
/// A derive call runs on the calling thread. One epoch-stamped scratch
/// workspace, kept by the engine and grown with admissions, serves every
/// root of every call without clearing, and molecules come out in root
/// order. Accepted molecules are appended to a MoleculeSet whose arrays stay
/// allocated from call to call and from engine to engine (the inputs'
/// `scratch`); each call hands out an exact-size copy of it (DESIGN.md §6).
class DerivationEngine {
 public:
  /// Resolves `md` against `db`: atom and link stores with their head
  /// versions, topological order, in- and out-edges, and whether `options`'
  /// view reads each store through its head. Validates the pushed programs.
  /// Reads no atom or link.
  static Result<DerivationEngine> Create(const Database& db,
                                         const MoleculeDescription& md,
                                         DerivationOptions options = {});

  /// One molecule per root-atom-type atom, in occurrence order. Molecules
  /// rejected by pushed filters are omitted (the survivors keep occurrence
  /// order and are bit-identical to derive-then-restrict). The set comes
  /// out as owning values.
  Result<std::vector<Molecule>> DeriveAll(DerivationStats* stats = nullptr);

  /// Molecules for exactly `roots`, in the given order (filter rejections
  /// omitted), as owning values. Every root is validated up front; invalid
  /// ids are reported together in one NotFound status.
  Result<std::vector<Molecule>> DeriveForRoots(
      const std::vector<AtomId>& roots, DerivationStats* stats = nullptr);

  /// DeriveAll and DeriveForRoots with per-call inputs in place of the
  /// options given to Create(), returning the flat set. `inputs.view` must
  /// read every store the way the snapshot does: as Create()'s view did,
  /// or — when the snapshot read every store through its head — as any
  /// view at which SnapshotCurrentAt() holds. A view that reads otherwise
  /// fails the call with InvalidArgument before anything is derived.
  Result<MoleculeSet> DeriveAll(const DerivationOptions& inputs,
                                DerivationStats* stats);
  Result<MoleculeSet> DeriveForRoots(const std::vector<AtomId>& roots,
                                     const DerivationOptions& inputs,
                                     DerivationStats* stats);

  /// The single molecule rooted at `root`.
  Result<Molecule> DeriveFor(AtomId root, DerivationStats* stats = nullptr);

  /// Whether a later derive call at `view` may grow this snapshot further:
  /// `md` (the description the engine was created from) re-resolved by
  /// name in `db` yields the very stores the engine resolved, each is still
  /// at the head version it had at Create() and head-visible at `view`, and
  /// the engine reads no store through a pinned view. A resolved store
  /// pointer is only compared, never read, until it has matched a live
  /// store: dropping a type frees its store.
  bool SnapshotCurrentAt(const Database& db, const MoleculeDescription& md,
                         const ReadView& view) const;

 private:
  static constexpr uint32_t kUnadmitted = UINT32_MAX;

  /// One description node's share of the snapshot. An atom is admitted —
  /// given the next dense index — when a derive call first reaches it, as a
  /// root or as a partner.
  struct NodeSnapshot {
    const AtomStore* store = nullptr;
    uint64_t head_version = 0;  // store->head_version() at Create()
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
    uint64_t head_version = 0;  // store->head_version() at Create()
    LinkDirection direction = LinkDirection::kForward;
    bool pinned = false;  // read PartnersAt(view) instead of Partners()
    std::vector<size_t> offsets{0};
    std::vector<uint32_t> targets;
  };
  /// One node's epoch-stamped scratch, kept across calls: entry d belongs
  /// to the atom of dense index d, and the arrays grow with admissions
  /// (new entries zero). A stamp below the current epoch is dead, so
  /// nothing is cleared between roots or calls, and a call costs only what
  /// it reaches however large the kept snapshot is.
  struct NodeScratch {
    std::vector<uint64_t> edge_token;    // last (epoch, edge) that saw the atom
    std::vector<uint64_t> hit_epoch;     // epoch of first discovery
    std::vector<uint32_t> hit_count;     // in-edges that reached it this epoch
    std::vector<uint64_t> member_epoch;  // epoch when accepted as contained
    std::vector<uint32_t> group;         // contained atoms, derivation order
    std::vector<uint32_t> order;         // candidate discovery order
  };
  struct Call;

  DerivationEngine() = default;

  /// Arranges `inputs`' programs by node into `call`; InvalidArgument when
  /// a program was compiled for another description or two name one node.
  Status Bind(const DerivationOptions& inputs, Call* call) const;
  /// InvalidArgument unless `view` reads every store as the snapshot does
  /// (see DeriveAll(inputs, stats)).
  Status CheckReadsLikeSnapshot(const std::optional<ReadView>& view) const;
  /// Admits exactly `roots`, or every root-type atom when `roots` is null,
  /// grows the snapshot and fans out over them into the scratch set, which
  /// it returns. Inputs other than `options_` are first checked with
  /// CheckReadsLikeSnapshot.
  Result<const MoleculeSet*> DeriveWith(const std::vector<AtomId>* roots,
                                        const DerivationOptions& inputs,
                                        DerivationStats* stats);
  /// Gives every admitted atom without rows its row on each outgoing edge,
  /// node by node in topological order, admitting partners as found.
  void Grow();
  /// Atoms admitted so far, over every node.
  size_t AdmittedCount() const;
  /// Grows the kept scratch to the admitted atoms.
  void SizeScratch();
  /// Derives the molecule for one root and appends it to `call.out`; false
  /// when a pushed filter or the residual program rejected it, an error
  /// status when a program failed to evaluate.
  Result<bool> DeriveOne(uint32_t root_dense, Call& call);
  Result<bool> CompleteNode(size_t node_idx, Call& call) const;
  Status FanOut(const std::vector<uint32_t>& roots, size_t admitted,
                Call& call, DerivationStats* stats);

  /// The inputs of the calls that take none of their own; `view` is also
  /// the view the snapshot reads pinned stores at.
  DerivationOptions options_;
  std::vector<NodeSnapshot> nodes_;
  std::vector<EdgeSnapshot> edges_;
  std::vector<size_t> node_order_;  // node indexes in topo order, root first
  size_t root_node_ = 0;
  /// Per node: the indexes of the description edges into and out of it.
  std::vector<std::vector<uint32_t>> in_edges_;
  std::vector<std::vector<uint32_t>> out_edges_;
  std::string root_type_name_;  // for error messages
  /// The kept workspace: per-node scratch and the epoch that stamps it.
  std::vector<NodeScratch> scratch_;
  uint64_t epoch_ = 0;
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

}  // namespace mad

#endif  // MAD_MOLECULE_DERIVATION_H_
