#include "molecule/derivation.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "expr/compile.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mad {

// ---- Per-call inputs -------------------------------------------------------

/// One derive call's bound inputs, counters and pushed-qualification state.
/// Built for the call and dropped with it, so nothing that points into a
/// statement's plan outlives the call.
struct DerivationEngine::Call {
  /// Per description node: its pushed filter (nullptr = unfiltered), and
  /// whether some program's binding loops need the node's dense rows.
  std::vector<const expr::CompiledPredicate*> filters_by_node;
  std::vector<bool> needs_rows;
  const expr::CompiledPredicate* residual = nullptr;
  bool filtering = false;
  size_t atoms_visited = 0;
  size_t links_scanned = 0;
  size_t rejected = 0;
  // One span per description node (published as each group completes),
  // dense-row buffers for looped nodes, and the reusable program scratch.
  // All empty when no filters are pushed.
  std::vector<expr::CompiledPredicate::AtomSpan> spans;
  std::vector<std::vector<const Atom*>> row_buf;
  expr::CompiledPredicate::Scratch scratch;
  /// Where accepted molecules are appended.
  MoleculeSet* out = nullptr;
};

namespace {

/// The scratch set of calls whose inputs bring none. It is kept per thread,
/// so its arrays stay allocated from call to call whichever engine makes
/// them: a set grown from empty on every call takes a page fault per new
/// page (DESIGN.md §6).
MoleculeSet& ThreadSet() {
  thread_local MoleculeSet set;
  return set;
}

}  // namespace

// ---- Description resolution ----------------------------------------------

Result<DerivationEngine> DerivationEngine::Create(const Database& db,
                                                 const MoleculeDescription& md,
                                                 DerivationOptions options) {
  DerivationEngine engine;
  engine.options_ = std::move(options);
  const std::optional<ReadView>& view = engine.options_.view;
  const size_t node_count = md.nodes().size();
  engine.nodes_.resize(node_count);
  engine.scratch_.resize(node_count);
  engine.in_edges_.resize(node_count);
  engine.out_edges_.resize(node_count);

  for (size_t i = 0; i < node_count; ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    NodeSnapshot& node = engine.nodes_[i];
    node.store = &at->occurrence();
    node.head_version = node.store->head_version();
    node.pinned = view.has_value() && !node.store->HeadVisibleAt(*view);
    const std::vector<size_t>& ins = md.InLinksOf(md.nodes()[i].label);
    engine.in_edges_[i].assign(ins.begin(), ins.end());
    const std::vector<size_t>& outs = md.OutLinksOf(md.nodes()[i].label);
    engine.out_edges_[i].assign(outs.begin(), outs.end());
  }

  MAD_ASSIGN_OR_RETURN(engine.root_node_, md.NodeIndex(md.root_label()));
  engine.root_type_name_ = md.root_node().type_name;

  engine.node_order_.reserve(md.topo_order().size());
  for (const std::string& label : md.topo_order()) {
    MAD_ASSIGN_OR_RETURN(size_t idx, md.NodeIndex(label));
    engine.node_order_.push_back(idx);
  }

  engine.edges_.reserve(md.links().size());
  for (const DirectedLink& dl : md.links()) {
    EdgeSnapshot edge;
    MAD_ASSIGN_OR_RETURN(edge.from_node, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(edge.to_node, md.NodeIndex(dl.to));
    MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(dl.link_type));
    edge.store = &lt->occurrence();
    edge.head_version = edge.store->head_version();
    edge.direction =
        dl.reverse ? LinkDirection::kBackward : LinkDirection::kForward;
    edge.pinned = view.has_value() && !edge.store->HeadVisibleAt(*view);
    engine.edges_.push_back(std::move(edge));
  }

  // Reject bad pushed programs now rather than at the first derive call.
  Call call;
  MAD_RETURN_IF_ERROR(engine.Bind(engine.options_, &call));
  return engine;
}

bool DerivationEngine::SnapshotCurrentAt(const Database& db,
                                         const MoleculeDescription& md,
                                         const ReadView& view) const {
  if (md.nodes().size() != nodes_.size() ||
      md.links().size() != edges_.size()) {
    return false;
  }
  // Each resolved pointer is compared before anything is read through it,
  // and then only the live store it matched is read.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Result<const AtomType*> at = db.GetAtomType(md.nodes()[i].type_name);
    if (!at.ok()) return false;
    const AtomStore* store = &(*at)->occurrence();
    if (store != nodes_[i].store || nodes_[i].pinned ||
        store->head_version() != nodes_[i].head_version ||
        !store->HeadVisibleAt(view)) {
      return false;
    }
  }
  for (size_t k = 0; k < edges_.size(); ++k) {
    Result<const LinkType*> lt = db.GetLinkType(md.links()[k].link_type);
    if (!lt.ok()) return false;
    const LinkStore* store = &(*lt)->occurrence();
    if (store != edges_[k].store || edges_[k].pinned ||
        store->head_version() != edges_[k].head_version ||
        !store->HeadVisibleAt(view)) {
      return false;
    }
  }
  return true;
}

// ---- Binding per-call inputs ---------------------------------------------

Status DerivationEngine::Bind(const DerivationOptions& inputs,
                              Call* call) const {
  const size_t node_count = nodes_.size();
  call->filters_by_node.assign(node_count, nullptr);
  call->needs_rows.assign(node_count, false);
  auto adopt = [&](const expr::CompiledPredicate* program) -> Status {
    if (program->node_count() != node_count) {
      return Status::InvalidArgument(
          "pushed predicate program was compiled against a different "
          "description");
    }
    for (size_t n : program->loop_nodes()) call->needs_rows[n] = true;
    call->filtering = true;
    return Status::OK();
  };
  for (const auto& [node_idx, program] : inputs.node_filters) {
    if (program == nullptr) continue;
    if (node_idx >= node_count) {
      return Status::InvalidArgument("pushed filter names node index " +
                                     std::to_string(node_idx) +
                                     " outside the description");
    }
    if (call->filters_by_node[node_idx] != nullptr) {
      return Status::InvalidArgument(
          "node index " + std::to_string(node_idx) +
          " has more than one pushed filter (conjoin them instead)");
    }
    MAD_RETURN_IF_ERROR(adopt(program));
    call->filters_by_node[node_idx] = program;
  }
  if (inputs.residual != nullptr) {
    MAD_RETURN_IF_ERROR(adopt(inputs.residual));
    call->residual = inputs.residual;
  }
  if (call->filtering) {
    call->spans.resize(node_count);
    call->row_buf.resize(node_count);
  }
  return Status::OK();
}

Status DerivationEngine::CheckReadsLikeSnapshot(
    const std::optional<ReadView>& view) const {
  bool any_pinned = false;
  auto reads_alike = [&](const auto& part) {
    any_pinned = any_pinned || part.pinned;
    return part.pinned ==
           (view.has_value() && !part.store->HeadVisibleAt(*view));
  };
  bool alike = std::all_of(nodes_.begin(), nodes_.end(), reads_alike) &&
               std::all_of(edges_.begin(), edges_.end(), reads_alike);
  // A pinned store's versions are frozen at Create()'s view.
  if (alike && any_pinned) {
    alike = view->epoch == options_.view->epoch &&
            view->self_stamp == options_.view->self_stamp;
  }
  if (alike) return Status::OK();
  return Status::InvalidArgument(
      "the derive call's view reads the stores differently from the view "
      "the engine's snapshot was grown at");
}

// ---- Snapshot growth -------------------------------------------------------

void DerivationEngine::NodeSnapshot::Touch(
    const std::optional<ReadView>& view) {
  if (touched) return;
  touched = true;
  if (pinned) {
    // Epoch-pinned path: freeze exactly the versions visible at the view.
    visible = store->SnapshotAt(*view);
    visible_position.reserve(visible.size());
    for (size_t k = 0; k < visible.size(); ++k) {
      visible_position.emplace(visible[k]->id, static_cast<uint32_t>(k));
    }
  }
  dense_of.assign(pinned ? visible.size() : store->size(), kUnadmitted);
}

std::optional<size_t> DerivationEngine::NodeSnapshot::PositionOf(
    AtomId id) const {
  if (!pinned) return store->PositionOf(id);
  auto it = visible_position.find(id);
  if (it == visible_position.end()) return std::nullopt;
  return it->second;
}

uint32_t DerivationEngine::NodeSnapshot::Admit(size_t position) {
  uint32_t& dense = dense_of[position];
  if (dense == kUnadmitted) {
    dense = static_cast<uint32_t>(ids.size());
    const Atom* row = pinned ? visible[position] : &store->atoms()[position];
    ids.push_back(row->id);
    rows.push_back(row);
  }
  return dense;
}

void DerivationEngine::Grow() {
  // A node's admissions come only from edges into it, and every such edge
  // starts at an earlier node in topological order: one pass suffices.
  for (size_t node_idx : node_order_) {
    const NodeSnapshot& from = nodes_[node_idx];
    for (uint32_t edge_idx : out_edges_[node_idx]) {
      EdgeSnapshot& edge = edges_[edge_idx];
      size_t r = edge.offsets.size() - 1;
      if (r == from.ids.size()) continue;
      NodeSnapshot& to = nodes_[edge.to_node];
      to.Touch(options_.view);
      auto admit = [&](AtomId partner) {
        if (std::optional<size_t> position = to.PositionOf(partner)) {
          edge.targets.push_back(to.Admit(*position));
        }
      };
      for (; r < from.ids.size(); ++r) {
        const AtomId id = from.ids[r];
        if (edge.pinned) {
          const ReadView& view = *options_.view;
          for (AtomId p : edge.store->PartnersAt(id, edge.direction, view)) {
            admit(p);
          }
        } else {
          for (AtomId p : edge.store->Partners(id, edge.direction)) {
            admit(p);
          }
        }
        edge.offsets.push_back(edge.targets.size());
      }
    }
  }
}

size_t DerivationEngine::AdmittedCount() const {
  size_t admitted = 0;
  for (const NodeSnapshot& node : nodes_) admitted += node.ids.size();
  return admitted;
}

void DerivationEngine::SizeScratch() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const size_t admitted = nodes_[i].ids.size();
    NodeScratch& ns = scratch_[i];
    if (ns.hit_epoch.size() == admitted) continue;
    ns.edge_token.resize(admitted, 0);
    ns.hit_epoch.resize(admitted, 0);
    ns.hit_count.resize(admitted, 0);
    ns.member_epoch.resize(admitted, 0);
  }
}

// ---- Derivation of one molecule (Def. 6) ----------------------------------

/// Publishes a completed group to the pushed-qualification spans and runs
/// the node's filter, if any. Returns false to reject the molecule. Called
/// only when filtering: the span array always reflects every group
/// completed so far this epoch (a program for node i references only node
/// i, and the residual runs when all groups are complete).
Result<bool> DerivationEngine::CompleteNode(size_t node_idx,
                                            Call& call) const {
  expr::CompiledPredicate::AtomSpan& span = call.spans[node_idx];
  const std::vector<uint32_t>& group = scratch_[node_idx].group;
  span.size = group.size();
  if (call.needs_rows[node_idx]) {
    std::vector<const Atom*>& buf = call.row_buf[node_idx];
    buf.clear();
    const std::vector<const Atom*>& rows = nodes_[node_idx].rows;
    for (uint32_t member : group) buf.push_back(rows[member]);
    span.data = buf.data();
  }
  const expr::CompiledPredicate* filter = call.filters_by_node[node_idx];
  if (filter == nullptr) return true;
  return filter->Eval(call.spans.data(), call.scratch);
}

/// Grows the maximal molecule for one root atom (the `contained`/`total`
/// semantics of Def. 6). Nodes are processed in topological order, so every
/// parent group is complete before its children are computed; an atom joins
/// a node's group iff it has a contained parent through *every* incoming
/// directed link type (conjunctive ∀-semantics). The loop runs entirely on
/// dense indexes over the grown CSR snapshot: no hashing, no lookups.
///
/// Pushed filters run as each group completes — a subtree that cannot
/// qualify is pruned before its descendants expand — and the residual
/// program runs before materialization. Rejections return false and append
/// nothing.
Result<bool> DerivationEngine::DeriveOne(uint32_t root_dense, Call& call) {
  const uint64_t epoch = ++epoch_;
  const uint64_t token_base = epoch * edges_.size();
  for (NodeScratch& ns : scratch_) ns.group.clear();
  if (call.filtering) {
    for (expr::CompiledPredicate::AtomSpan& span : call.spans) {
      span = expr::CompiledPredicate::AtomSpan{};
    }
  }

  NodeScratch& root_scratch = scratch_[root_node_];
  root_scratch.group.push_back(root_dense);
  root_scratch.member_epoch[root_dense] = epoch;
  call.atoms_visited += 1;
  if (call.filtering) {
    MAD_ASSIGN_OR_RETURN(bool keep, CompleteNode(root_node_, call));
    if (!keep) {
      ++call.rejected;
      return false;
    }
  }

  for (size_t oi = 1; oi < node_order_.size(); ++oi) {
    const size_t node_idx = node_order_[oi];
    NodeScratch& ns = scratch_[node_idx];
    const std::vector<uint32_t>& ins = in_edges_[node_idx];
    ns.order.clear();

    for (uint32_t edge_idx : ins) {
      const uint64_t token = token_base + edge_idx;
      const EdgeSnapshot& edge = edges_[edge_idx];
      for (uint32_t parent : scratch_[edge.from_node].group) {
        const size_t row_begin = edge.offsets[parent];
        const size_t row_end = edge.offsets[parent + 1];
        call.links_scanned += row_end - row_begin;
        for (size_t k = row_begin; k < row_end; ++k) {
          const uint32_t target = edge.targets[k];
          if (ns.edge_token[target] == token) continue;  // dedup per edge
          ns.edge_token[target] = token;
          if (ns.hit_epoch[target] != epoch) {
            ns.hit_epoch[target] = epoch;
            ns.hit_count[target] = 1;
            ns.order.push_back(target);
          } else {
            ++ns.hit_count[target];
          }
        }
      }
    }
    call.atoms_visited += ns.order.size();
    for (uint32_t candidate : ns.order) {
      if (ns.hit_count[candidate] == ins.size()) {
        ns.group.push_back(candidate);
        ns.member_epoch[candidate] = epoch;
      }
    }
    if (call.filtering) {
      MAD_ASSIGN_OR_RETURN(bool keep, CompleteNode(node_idx, call));
      if (!keep) {
        ++call.rejected;
        return false;
      }
    }
  }

  if (call.residual != nullptr) {
    MAD_ASSIGN_OR_RETURN(bool keep,
                         call.residual->Eval(call.spans.data(), call.scratch));
    if (!keep) {
      ++call.rejected;
      return false;
    }
  }

  MoleculeSet& out = *call.out;
  out.StartMolecule(nodes_[root_node_].ids[root_dense]);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const std::vector<AtomId>& ids = nodes_[i].ids;
    for (uint32_t member : scratch_[i].group) out.AddAtom(ids[member]);
    out.CloseGroup();
  }

  // Record the molecule's links g: every underlying link between contained
  // atoms along a description edge.
  for (uint32_t edge_idx = 0; edge_idx < edges_.size(); ++edge_idx) {
    const EdgeSnapshot& edge = edges_[edge_idx];
    const NodeScratch& to_scratch = scratch_[edge.to_node];
    const std::vector<AtomId>& from_ids = nodes_[edge.from_node].ids;
    const std::vector<AtomId>& to_ids = nodes_[edge.to_node].ids;
    for (uint32_t parent : scratch_[edge.from_node].group) {
      const size_t row_begin = edge.offsets[parent];
      const size_t row_end = edge.offsets[parent + 1];
      call.links_scanned += row_end - row_begin;
      for (size_t k = row_begin; k < row_end; ++k) {
        const uint32_t target = edge.targets[k];
        if (to_scratch.member_epoch[target] == epoch) {
          out.AddLink(MoleculeLink{edge_idx, from_ids[parent], to_ids[target]});
        }
      }
    }
  }
  out.CloseMolecule();
  return true;
}

// ---- Fan-out over the roots ----------------------------------------------

Status DerivationEngine::FanOut(const std::vector<uint32_t>& roots,
                                size_t admitted, Call& call,
                                DerivationStats* stats) {
  // One span covers the whole fan-out; the per-root loop stays span-free
  // (it aggregates into DerivationStats instead). Its note says how many
  // atoms this call added to the snapshot: 0 when it reused one.
  ScopedSpan span("derive", [&] {
    return std::to_string(admitted) + (admitted == 1 ? " atom" : " atoms") +
           " admitted";
  });
  span.set_rows_in(static_cast<int64_t>(roots.size()));

  const auto start = std::chrono::steady_clock::now();
  SizeScratch();
  // Roots are derived in order, so the output is root order; a filter
  // rejection derives no molecule, and the first evaluation error wins.
  call.out->Reset(nodes_.size());
  for (uint32_t root : roots) {
    MAD_RETURN_IF_ERROR(DeriveOne(root, call).status());
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (stats != nullptr) {
    *stats = DerivationStats{};
    stats->roots = roots.size();
    stats->atoms_visited = call.atoms_visited;
    stats->links_scanned = call.links_scanned;
    stats->molecules_rejected = call.rejected;
    stats->wall_ms = wall_ms;
  }

  // Fold the run into the process-wide registry (static refs: the name
  // lookup happens once, the updates are relaxed atomics).
  static Counter& roots_counter =
      Registry::Global().GetCounter("derivation.roots");
  static Counter& atoms_counter =
      Registry::Global().GetCounter("derivation.atoms_visited");
  static Counter& links_counter =
      Registry::Global().GetCounter("derivation.links_scanned");
  static Counter& rejected_counter =
      Registry::Global().GetCounter("derivation.rejected");
  static Histogram& wall_hist =
      Registry::Global().GetHistogram("derivation.fanout_us");
  roots_counter.Add(roots.size());
  atoms_counter.Add(call.atoms_visited);
  links_counter.Add(call.links_scanned);
  rejected_counter.Add(call.rejected);
  wall_hist.Observe(static_cast<uint64_t>(wall_ms * 1000.0));

  span.set_rows_out(static_cast<int64_t>(call.out->size()));
  return Status::OK();
}

Result<const MoleculeSet*> DerivationEngine::DeriveWith(
    const std::vector<AtomId>* roots, const DerivationOptions& inputs,
    DerivationStats* stats) {
  // Inputs other than the engine's own must read like the snapshot.
  if (&inputs != &options_) {
    MAD_RETURN_IF_ERROR(CheckReadsLikeSnapshot(inputs.view));
  }
  Call call;
  call.out = inputs.scratch != nullptr ? inputs.scratch : &ThreadSet();
  MAD_RETURN_IF_ERROR(Bind(inputs, &call));
  const size_t admitted_before = AdmittedCount();
  NodeSnapshot& root = nodes_[root_node_];
  root.Touch(options_.view);
  std::vector<uint32_t> dense_roots;
  if (roots == nullptr) {
    dense_roots.resize(root.dense_of.size());
    for (size_t position = 0; position < dense_roots.size(); ++position) {
      dense_roots[position] = root.Admit(position);
    }
  } else {
    // Validate every root before deriving anything, and report all
    // offenders in one message instead of failing at the first mid-loop.
    dense_roots.reserve(roots->size());
    std::string bad;
    size_t bad_count = 0;
    for (AtomId id : *roots) {
      std::optional<size_t> position = root.PositionOf(id);
      if (!position.has_value()) {
        bad += bad.empty() ? "#" : ", #";
        bad += std::to_string(id.value);
        ++bad_count;
        continue;
      }
      dense_roots.push_back(root.Admit(*position));
    }
    if (bad_count > 0) {
      return Status::NotFound(
          (bad_count == 1 ? "atom " + bad + " is" : "atoms " + bad + " are") +
          " not in root atom type '" + root_type_name_ + "'");
    }
  }
  Grow();
  MAD_RETURN_IF_ERROR(
      FanOut(dense_roots, AdmittedCount() - admitted_before, call, stats));
  return call.out;
}

Result<std::vector<Molecule>> DerivationEngine::DeriveAll(
    DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(const MoleculeSet* set,
                       DeriveWith(nullptr, options_, stats));
  return set->ToMolecules();
}

Result<std::vector<Molecule>> DerivationEngine::DeriveForRoots(
    const std::vector<AtomId>& roots, DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(const MoleculeSet* set,
                       DeriveWith(&roots, options_, stats));
  return set->ToMolecules();
}

// The set-returning calls hand out an exact-size copy of the scratch set,
// whose arrays stay allocated for the next call.

Result<MoleculeSet> DerivationEngine::DeriveAll(const DerivationOptions& inputs,
                                                DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(const MoleculeSet* set,
                       DeriveWith(nullptr, inputs, stats));
  return *set;
}

Result<MoleculeSet> DerivationEngine::DeriveForRoots(
    const std::vector<AtomId>& roots, const DerivationOptions& inputs,
    DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(const MoleculeSet* set,
                       DeriveWith(&roots, inputs, stats));
  return *set;
}

Result<Molecule> DerivationEngine::DeriveFor(AtomId root,
                                             DerivationStats* stats) {
  const std::vector<AtomId> roots = {root};
  MAD_ASSIGN_OR_RETURN(const MoleculeSet* set,
                       DeriveWith(&roots, options_, stats));
  if (set->empty()) {
    return Status::NotFound("molecule #" + std::to_string(root.value) +
                            " was rejected by pushed-down qualification");
  }
  return Molecule((*set)[0]);
}

// ---- Free-function façade --------------------------------------------------

Result<std::vector<Molecule>> DeriveMolecules(const Database& db,
                                              const MoleculeDescription& md,
                                              const DerivationOptions& options,
                                              DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  return engine.DeriveAll(stats);
}

Result<Molecule> DeriveMoleculeFor(const Database& db,
                                   const MoleculeDescription& md,
                                   AtomId root) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md));
  return engine.DeriveFor(root);
}

Result<std::vector<Molecule>> DeriveMoleculesForRoots(
    const Database& db, const MoleculeDescription& md,
    const std::vector<AtomId>& roots, const DerivationOptions& options,
    DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  return engine.DeriveForRoots(roots, stats);
}

Result<MoleculeType> DefineMoleculeType(const Database& db, std::string name,
                                        MoleculeDescription md,
                                        const DerivationOptions& options,
                                        DerivationStats* stats) {
  if (name.empty()) {
    return Status::InvalidArgument("molecule type name must be non-empty");
  }
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  MAD_ASSIGN_OR_RETURN(MoleculeSet molecules, engine.DeriveAll(options, stats));
  return MoleculeType(std::move(name), std::move(md), std::move(molecules));
}

}  // namespace mad
