#include "mql/session.h"

#include <algorithm>
#include <atomic>

#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/kernels.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/optimizer.h"
#include "mql/parser.h"
#include "mql/sema.h"
#include "text/printer.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace mad {
namespace mql {

namespace {

/// Monotone id shared by every Session in the process.
std::atomic<uint64_t> g_next_session_id{1};

/// Root ids the plan's seed fans the derivation out over, or nullopt for
/// every root. Both seeds restore occurrence order, so seeded derivation
/// stays bit-identical to the unseeded scan.
using Roots = std::optional<std::vector<AtomId>>;
Result<Roots> SeedRoots(const Database& db, const SelectPlan& plan) {
  const PushdownPlan& pushdown = plan.pushdown;
  if (!pushdown.seed.has_value() && !pushdown.scan_seed.has_value()) {
    return Roots();
  }
  const std::string& type = plan.description->root_node().type_name;
  MAD_ASSIGN_OR_RETURN(const AtomType* root_at, db.GetAtomType(type));
  const AtomStore& store = root_at->occurrence();
  std::vector<AtomId> roots;
  if (pushdown.seed.has_value()) {
    // AttributeIndex::Lookup lists the bucket in head order, which is
    // occurrence order; the sort by position keeps the roots in that order
    // without depending on the index's bookkeeping.
    const IndexSeed& seed = *pushdown.seed;
    ScopedSpan span("index-seed", [&] {
      return type + "." + seed.attribute + " = " + seed.value.ToString();
    });
    span.set_rows_in(static_cast<int64_t>(store.size()));
    const std::vector<AtomId>& bucket = seed.index->Lookup(seed.value);
    std::vector<std::pair<size_t, AtomId>> ordered;
    ordered.reserve(bucket.size());
    for (AtomId id : bucket) {
      std::optional<size_t> pos = store.PositionOf(id);
      if (pos.has_value()) ordered.emplace_back(*pos, id);
    }
    std::sort(ordered.begin(), ordered.end());
    roots.reserve(ordered.size());
    for (const auto& [pos, id] : ordered) roots.push_back(id);
    span.set_rows_out(static_cast<int64_t>(roots.size()));
    return Roots(std::move(roots));
  }
  // The batch compare kernel over the whole root column; the row order is
  // occurrence order by construction.
  const ScanSeed& seed = *pushdown.scan_seed;
  ScopedSpan span("seed-scan", [&] { return type + ": " + seed.display; });
  const ColumnSet& columns = store.columns();
  span.set_rows_in(static_cast<int64_t>(columns.rows()));
  expr::RowBitmaps bits;
  if (!expr::BuildCompareBitmaps(*columns.column(seed.value_slot),
                                 columns.rows(), seed.op, seed.value,
                                 seed.attr_on_left, &bits) ||
      bits.any_err) {
    return Roots();  // the error surfaces through ordinary evaluation
  }
  for (size_t r = 0; r < columns.rows(); ++r) {
    if (bits.Pass(r)) roots.push_back(columns.IdAt(r));
  }
  span.set_rows_out(static_cast<int64_t>(roots.size()));
  return Roots(std::move(roots));
}

/// Σ over the closures: the WHERE program runs once per closure, with the
/// root bound to the closure's root atom and the member loops over every
/// closure atom (the root included), in level order.
Result<std::vector<RecursiveMolecule>> RestrictClosures(
    const Database& db, const SelectPlan& plan, const ReadView& view,
    std::vector<RecursiveMolecule> closures) {
  ScopedSpan span("sigma", [&] { return plan.where->ToString(); });
  span.set_rows_in(static_cast<int64_t>(closures.size()));
  MAD_ASSIGN_OR_RETURN(const AtomType* at,
                       db.GetAtomType(plan.recursive->atom_type));
  const AtomStore& store = at->occurrence();
  const expr::CompiledPredicate& program = *plan.closure_program;
  const std::vector<size_t>& loops = program.loop_nodes();
  const bool bind_members = std::count(loops.begin(), loops.end(), 1) > 0;
  expr::CompiledPredicate::Scratch scratch;
  std::vector<const Atom*> members;
  std::vector<RecursiveMolecule> kept;
  for (RecursiveMolecule& m : closures) {
    const Atom* root = store.FindAt(m.root(), view);
    members.clear();
    for (size_t d = 0; bind_members && d < m.levels().size(); ++d) {
      for (AtomId id : m.levels()[d]) {
        members.push_back(store.FindAt(id, view));
      }
    }
    const expr::CompiledPredicate::AtomSpan groups[2] = {
        {&root, 1}, {members.data(), members.size()}};
    MAD_ASSIGN_OR_RETURN(bool hit, program.Eval(groups, scratch));
    if (hit) kept.push_back(std::move(m));
  }
  span.set_rows_out(static_cast<int64_t>(kept.size()));
  return kept;
}

/// Executes a recursive plan: closure, then Σ, then the expansion tail.
Result<QueryResult> ExecuteRecursive(const Database& db,
                                     const SelectPlan& plan,
                                     const ReadView& view) {
  QueryResult result;
  result.epoch = view.epoch;
  result.kind = QueryResult::Kind::kRecursive;
  result.recursive_description = *plan.recursive;
  MAD_ASSIGN_OR_RETURN(result.recursive,
                       DeriveRecursiveMolecules(db, *plan.recursive, view));
  if (plan.closure_program.has_value()) {
    MAD_ASSIGN_OR_RETURN(
        result.recursive,
        RestrictClosures(db, plan, view, std::move(result.recursive)));
  }
  if (plan.expansion == nullptr) return result;
  // One component molecule per closure member, derived only for the
  // closures that survived Σ. One engine serves every closure: the
  // adjacency snapshot is built once, not once per recursive molecule.
  DerivationOptions dopts;
  dopts.view = view;
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, *plan.expansion, dopts));
  DerivationStats totals;
  for (const RecursiveMolecule& m : result.recursive) {
    ScopedSpan span("expand",
                    [&] { return "root #" + std::to_string(m.root().value); });
    std::vector<AtomId> members;
    for (const auto& level : m.levels()) {
      members.insert(members.end(), level.begin(), level.end());
    }
    span.set_rows_in(static_cast<int64_t>(members.size()));
    DerivationStats stats;
    MAD_ASSIGN_OR_RETURN(MoleculeSet components,
                         engine.DeriveForRoots(members, dopts, &stats));
    span.set_rows_out(static_cast<int64_t>(components.size()));
    totals.roots += stats.roots;
    totals.atoms_visited += stats.atoms_visited;
    totals.links_scanned += stats.links_scanned;
    totals.wall_ms += stats.wall_ms;
    result.recursive_components.push_back(std::move(components));
  }
  result.expansion_description = *plan.expansion;
  result.derivation = totals;
  return result;
}

}  // namespace

/// The derivation snapshot an unseeded SELECT grew, with the description it
/// was grown for.
struct Session::KeptSnapshot {
  MoleculeDescription description;
  DerivationEngine engine;
};

/// Executes a plan: one DerivationEngine runs a with the pushed Σ fused in
/// (node filters at group completion, the residual in the fan-out) over the
/// seeded roots, then Π.
Result<QueryResult> Session::ExecutePlan(const SelectPlan& plan,
                                         const ReadView& view) {
  if (plan.recursive.has_value()) return ExecuteRecursive(*db_, plan, view);
  DerivationOptions inputs;
  inputs.view = view;
  inputs.scratch = &derive_scratch_;
  for (size_t i = 0; i < plan.node_programs.size(); ++i) {
    inputs.node_filters.emplace_back(plan.pushdown.node_filters[i].node_index,
                                     &plan.node_programs[i]);
  }
  if (plan.residual_program.has_value()) {
    inputs.residual = &*plan.residual_program;
  }
  MAD_ASSIGN_OR_RETURN(Roots roots, SeedRoots(*db_, plan));
  DerivationStats stats;
  MoleculeSet molecules;
  {
    // The fused Σ: rows_in counts the roots fanned out over, rows_out the
    // molecules surviving the pushed programs.
    std::optional<ScopedSpan> sigma;
    if (plan.where != nullptr) {
      sigma.emplace("sigma", [&] { return plan.where->ToString(); });
    }
    MAD_ASSIGN_OR_RETURN(molecules,
                         Derive(*plan.description, roots, inputs, &stats));
    if (sigma.has_value()) {
      sigma->set_rows_in(static_cast<int64_t>(stats.roots));
      sigma->set_rows_out(static_cast<int64_t>(molecules.size()));
    }
  }
  MoleculeType mt(plan.name, *plan.description, std::move(molecules));
  if (plan.projection.has_value()) {
    MAD_ASSIGN_OR_RETURN(
        mt,
        ProjectMolecules(*db_, std::move(mt), *plan.projection, plan.name));
  }
  QueryResult result;
  result.epoch = view.epoch;
  result.kind = QueryResult::Kind::kMolecules;
  result.derivation = stats;
  result.molecules = std::make_shared<MoleculeType>(std::move(mt));
  return result;
}

Result<MoleculeSet> Session::Derive(
    const MoleculeDescription& md,
    const std::optional<std::vector<AtomId>>& roots,
    const DerivationOptions& inputs, DerivationStats* stats) {
  const ReadView& view = *inputs.view;
  if (kept_snapshot_ != nullptr &&
      (kept_snapshot_->description != md ||
       !kept_snapshot_->engine.SnapshotCurrentAt(*db_, md, view))) {
    kept_snapshot_.reset();
  }
  if (kept_snapshot_ != nullptr) {
    DerivationEngine& kept = kept_snapshot_->engine;
    return roots.has_value() ? kept.DeriveForRoots(*roots, inputs, stats)
                             : kept.DeriveAll(inputs, stats);
  }
  DerivationOptions resolve;
  resolve.view = view;
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(*db_, md, std::move(resolve)));
  if (roots.has_value()) return engine.DeriveForRoots(*roots, inputs, stats);
  MAD_ASSIGN_OR_RETURN(MoleculeSet molecules, engine.DeriveAll(inputs, stats));
  // Only a snapshot of every root is kept: a seeded one is sized to its
  // reach and cheap to grow again. One read through a pinned view is never
  // current at a later statement, so it is not kept either.
  if (engine.SnapshotCurrentAt(*db_, md, view)) {
    kept_snapshot_.reset(new KeptSnapshot{md, std::move(engine)});
  }
  return molecules;
}

Session::Session(Database* db, SessionOptions options)
    : db_(db),
      options_(options),
      session_id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.pin_snapshot) RefreshSnapshotPin();
}

Session::~Session() {
  ReleaseResultPins();
  // txn_ rolls back via Transaction's dtor.
}

ReadView Session::CurrentView() const {
  if (txn_ != nullptr) return txn_->view();
  if (snapshot_pin_.pinned()) return snapshot_pin_.view();
  return ReadView{db_->current_epoch(), 0};
}

void Session::RefreshSnapshotPin() {
  ReaderLock read_lock(db_->mutex());
  snapshot_pin_ = db_->PinEpoch();
}

void Session::ReleaseResultPins() {
  for (const std::weak_ptr<EpochPin>& held : result_pins_) {
    if (std::shared_ptr<EpochPin> pin = held.lock()) pin->Release();
  }
  result_pins_.clear();
}

Status Session::RequireNoTransaction(const char* what) const {
  if (txn_ == nullptr) return Status::OK();
  return Status::InvalidArgument(
      std::string(what) + " is not allowed inside a transaction; COMMIT or "
      "ROLLBACK transaction #" + std::to_string(txn_->id()) + " first");
}

Status Session::WrapConflict(Status status) {
  if (!Database::IsWriteConflict(status)) return status;
  Diagnostic diag;
  diag.id = DiagId::kTxnConflict;
  diag.message = status.message();
  return Status(DiagStatusCode(DiagId::kTxnConflict),
                FormatDiagnosticLine(diag));
}

Result<QueryResult> Session::Execute(const std::string& text) {
  MAD_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  return Execute(std::move(stmt));
}

Result<QueryResult> Session::Execute(Statement statement) {
  std::vector<Diagnostic> diags = AnalyzeStatement(
      *db_, registry_, statement, AnalyzerContext{txn_ != nullptr});
  if (HasErrors(diags)) return DiagnosticsToStatus(diags);
  Result<QueryResult> result = Run(std::move(statement));
  if (result.ok()) {
    for (Diagnostic& warning : WarningsOnly(diags)) {
      result->diagnostics.push_back(std::move(warning));
    }
  }
  return result;
}

Result<std::vector<QueryResult>> Session::ExecuteScript(
    const std::string& text) {
  MAD_ASSIGN_OR_RETURN(std::vector<Statement> statements, ParseScript(text));
  std::vector<QueryResult> results;
  results.reserve(statements.size());
  for (Statement& stmt : statements) {
    // Analyze per statement, not upfront: later statements must see the
    // catalog effects of earlier DDL in the script (and the transaction
    // lints the BEGIN/COMMIT state of earlier statements).
    MAD_ASSIGN_OR_RETURN(QueryResult result, Execute(std::move(stmt)));
    results.push_back(std::move(result));
  }
  return results;
}

Result<QueryResult> Session::Run(Statement statement) {
  // One count and one timer per statement a session runs, in process or
  // served.
  static Counter& statements = Registry::Global().GetCounter("mql.statements");
  static Histogram& latency =
      Registry::Global().GetHistogram("mql.statement_us");
  statements.Increment();
  ScopedTimer timer(latency);

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (!options_.trace || CurrentTrace() != nullptr) {
      // Tracing off, or already under an EXPLAIN ANALYZE / outer trace.
      return RunStatement(std::move(statement));
    }
    auto trace = std::make_shared<QueryTrace>();
    Result<QueryResult> traced = [&] {
      TraceScope scope(trace.get());
      return RunStatement(std::move(statement));
    }();
    if (traced.ok() && traced->trace == nullptr) traced->trace = trace;
    return traced;
  }();
  // A successful autocommit write (or COMMIT) advances the session pin so
  // PIN SNAPSHOT reads stay stable *and* observe the session's own writes.
  if (result.ok() && options_.pin_snapshot && txn_ == nullptr &&
      snapshot_pin_.pinned() && result->affected > 0) {
    RefreshSnapshotPin();
  }
  return result;
}

Result<QueryResult> Session::RunStatement(Statement statement) {
  return std::visit(
      [this](auto&& stmt) -> Result<QueryResult> {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, SelectStatement>) {
          return RunSelect(stmt);
        } else if constexpr (std::is_same_v<T, CreateAtomTypeStatement>) {
          return RunCreateAtomType(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CreateLinkTypeStatement>) {
          return RunCreateLinkType(std::move(stmt));
        } else if constexpr (std::is_same_v<T, InsertAtomStatement>) {
          return RunInsertAtom(std::move(stmt));
        } else if constexpr (std::is_same_v<T, InsertLinkStatement>) {
          return RunInsertLink(std::move(stmt));
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return RunUpdate(std::move(stmt));
        } else if constexpr (std::is_same_v<T, ExplainStatement>) {
          return RunExplain(std::move(stmt));
        } else if constexpr (std::is_same_v<T, ShowMetricsStatement>) {
          return RunShowMetrics(std::move(stmt));
        } else if constexpr (std::is_same_v<T, SetOptionStatement>) {
          return RunSetOption(std::move(stmt));
        } else if constexpr (std::is_same_v<T, OpenStatement>) {
          return RunOpen(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CheckpointStatement>) {
          return RunCheckpoint(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CheckStatement>) {
          return RunCheck(std::move(stmt));
        } else if constexpr (std::is_same_v<T, BeginStatement>) {
          return RunBegin(std::move(stmt));
        } else if constexpr (std::is_same_v<T, CommitStatement>) {
          return RunCommit(std::move(stmt));
        } else if constexpr (std::is_same_v<T, RollbackStatement>) {
          return RunRollback(std::move(stmt));
        } else if constexpr (std::is_same_v<T, ShowTransactionsStatement>) {
          return RunShowTransactions(std::move(stmt));
        } else {
          return RunDelete(std::move(stmt));
        }
      },
      std::move(statement));
}

Status Session::RegisterMoleculeType(const std::string& name,
                                     MoleculeDescription description) {
  if (name.empty()) {
    return Status::InvalidArgument("molecule type name must be non-empty");
  }
  registry_.insert_or_assign(name, std::move(description));
  return Status::OK();
}

Result<QueryResult> Session::RunSelect(const SelectStatement& stmt,
                                       std::string* explain) {
  ScopedSpan select_span("select", stmt.from.molecule_name);
  // The whole statement plans and reads at one pinned epoch under a shared
  // lock: concurrent sessions' commits queue behind it, so the plan's
  // borrowed store pointers stay valid for the statement, and the pin keeps
  // GC away from the snapshot's versions. With a transaction open the view
  // is the transaction's (snapshot + its own uncommitted writes).
  ReaderLock read_lock(db_->mutex());
  // The per-statement pin protects the no-transaction, no-session-pin case;
  // CurrentView() then reads at exactly this pinned epoch. The result keeps
  // the pin, so its render still finds the versions the view saw.
  auto pin = std::make_shared<EpochPin>(db_->PinEpoch());
  const ReadView view = CurrentView();
  MAD_ASSIGN_OR_RETURN(SelectPlan plan,
                       PlanSelect(*db_, registry_, stmt, view));
  if (explain != nullptr) *explain = FormatSelectPlan(plan);
  if (!stmt.from.molecule_name.empty() && plan.description != nullptr) {
    MAD_RETURN_IF_ERROR(
        RegisterMoleculeType(stmt.from.molecule_name, *plan.description));
  }
  MAD_ASSIGN_OR_RETURN(QueryResult result, ExecutePlan(plan, view));
  result.view = view;
  if (durable_ != nullptr) {
    std::erase_if(result_pins_, [](const std::weak_ptr<EpochPin>& held) {
      return held.expired();
    });
    result_pins_.push_back(pin);
  }
  result.pin = std::move(pin);
  select_span.set_rows_out(static_cast<int64_t>(
      result.molecules != nullptr ? result.molecules->size()
                                  : result.recursive.size()));
  return result;
}

Result<QueryResult> Session::RunCreateAtomType(CreateAtomTypeStatement stmt) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("CREATE ATOM TYPE"));
  Schema schema;
  for (const auto& [attr, type] : stmt.attributes) {
    MAD_RETURN_IF_ERROR(schema.AddAttribute(attr, type));
  }
  MAD_RETURN_IF_ERROR(db_->DefineAtomType(stmt.name, std::move(schema)));
  QueryResult result;
  result.message = "atom type '" + stmt.name + "' created";
  return result;
}

Result<QueryResult> Session::RunCreateLinkType(CreateLinkTypeStatement stmt) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("CREATE LINK TYPE"));
  MAD_RETURN_IF_ERROR(db_->DefineLinkType(stmt.name, stmt.first, stmt.second,
                                          stmt.cardinality));
  QueryResult result;
  result.message = "link type '" + stmt.name + "' created";
  return result;
}

Result<QueryResult> Session::RunInsertAtom(InsertAtomStatement stmt) {
  QueryResult result;
  for (std::vector<Value>& row : stmt.rows) {
    MAD_RETURN_IF_ERROR(WrapConflict(
        db_->InsertAtom(stmt.atom_type, std::move(row), txn_.get()).status()));
    ++result.affected;
  }
  result.message = std::to_string(result.affected) + " atom(s) inserted into '" +
                   stmt.atom_type + "'";
  return result;
}

namespace {

/// Atoms of `aname` visible at `view` and matching `predicate` (validated
/// up front).
Result<std::vector<AtomId>> MatchingAtoms(const Database& db,
                                          const std::string& aname,
                                          const expr::ExprPtr& predicate,
                                          const ReadView& view) {
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db.GetAtomType(aname));
  MAD_RETURN_IF_ERROR(
      expr::ValidateAgainstSchema(*predicate, aname, at->description()));
  std::vector<AtomId> matches;
  for (const Atom* atom : at->occurrence().SnapshotAt(view)) {
    MAD_ASSIGN_OR_RETURN(
        bool hit,
        expr::EvalOnAtom(*predicate, aname, at->description(), *atom));
    if (hit) matches.push_back(atom->id);
  }
  return matches;
}

}  // namespace

Result<QueryResult> Session::RunInsertLink(InsertLinkStatement stmt) {
  MAD_ASSIGN_OR_RETURN(const LinkType* lt, db_->GetLinkType(stmt.link_type));
  // Match endpoints against this session's view under a shared lock, then
  // release it: the mutators below take the unique lock themselves.
  std::vector<AtomId> first_atoms;
  std::vector<AtomId> second_atoms;
  {
    ReaderLock read_lock(db_->mutex());
    const ReadView view = CurrentView();
    MAD_ASSIGN_OR_RETURN(
        first_atoms,
        MatchingAtoms(*db_, lt->first_atom_type(), stmt.first_predicate, view));
    MAD_ASSIGN_OR_RETURN(second_atoms,
                         MatchingAtoms(*db_, lt->second_atom_type(),
                                       stmt.second_predicate, view));
  }

  QueryResult result;
  for (AtomId first : first_atoms) {
    for (AtomId second : second_atoms) {
      Status s = db_->InsertLink(stmt.link_type, first, second, txn_.get());
      if (s.ok()) {
        ++result.affected;
      } else if (s.code() != StatusCode::kAlreadyExists) {
        return WrapConflict(std::move(s));
      }
    }
  }
  result.message = std::to_string(result.affected) + " link(s) inserted into '" +
                   stmt.link_type + "'";
  return result;
}

Result<QueryResult> Session::RunUpdate(UpdateStatement stmt) {
  MAD_ASSIGN_OR_RETURN(const AtomType* at, db_->GetAtomType(stmt.atom_type));
  const Schema& schema = at->description();

  // Resolve assignment targets and validate value expressions' references.
  std::vector<size_t> target_indexes;
  for (const auto& [attr, value_expr] : stmt.assignments) {
    MAD_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr));
    target_indexes.push_back(idx);
    std::vector<const expr::Expr*> refs;
    value_expr->CollectAttrRefs(&refs);
    for (const expr::Expr* ref : refs) {
      if (!ref->qualifier().empty() && ref->qualifier() != stmt.atom_type) {
        return Status::InvalidArgument("qualifier '" + ref->qualifier() +
                                       "' does not match atom type '" +
                                       stmt.atom_type + "'");
      }
      if (!schema.HasAttribute(ref->attribute())) {
        return Status::NotFound("unknown attribute '" + ref->attribute() +
                                "' in atom type '" + stmt.atom_type + "'");
      }
    }
  }

  // Phase 1 (shared lock): resolve targets through this session's view and
  // evaluate every assignment against the pre-update atom images. Phase 2
  // (lock released) applies the staged updates; each target is updated at
  // most once, so the split preserves the historical per-atom semantics.
  std::vector<std::pair<AtomId, std::vector<Value>>> staged;
  {
    ReaderLock read_lock(db_->mutex());
    const ReadView view = CurrentView();
    std::vector<AtomId> targets;
    if (stmt.predicate != nullptr) {
      MAD_ASSIGN_OR_RETURN(
          targets, MatchingAtoms(*db_, stmt.atom_type, stmt.predicate, view));
    } else {
      for (const Atom* atom : at->occurrence().SnapshotAt(view)) {
        targets.push_back(atom->id);
      }
    }

    for (AtomId id : targets) {
      const Atom* atom = at->occurrence().FindAt(id, view);
      if (atom == nullptr) continue;
      expr::BindingSet bindings;
      bindings.Bind(stmt.atom_type, &schema, atom);
      std::vector<Value> values = atom->values;
      for (size_t i = 0; i < stmt.assignments.size(); ++i) {
        MAD_ASSIGN_OR_RETURN(
            Value v, expr::EvalValue(*stmt.assignments[i].second, bindings));
        values[target_indexes[i]] = std::move(v);
      }
      staged.emplace_back(id, std::move(values));
    }
  }

  QueryResult result;
  for (auto& [id, values] : staged) {
    MAD_RETURN_IF_ERROR(WrapConflict(
        db_->UpdateAtom(stmt.atom_type, id, std::move(values), txn_.get())));
    ++result.affected;
  }
  result.message = std::to_string(result.affected) + " atom(s) updated in '" +
                   stmt.atom_type + "'";
  return result;
}

Result<QueryResult> Session::RunExplain(ExplainStatement stmt) {
  QueryResult result;
  if (!stmt.analyze) {
    // The plan RunSelect would execute, built the same way: under the
    // shared lock, at this session's view.
    ReaderLock read_lock(db_->mutex());
    MAD_ASSIGN_OR_RETURN(
        SelectPlan plan,
        PlanSelect(*db_, registry_, stmt.select, CurrentView()));
    result.message = FormatSelectPlan(plan);
    return result;
  }
  // EXPLAIN ANALYZE: execute the select under a fresh trace and report the
  // plan it executed together with the recorded operator span tree.
  std::string plan;
  auto trace = std::make_shared<QueryTrace>();
  Result<QueryResult> executed = [&] {
    TraceScope scope(trace.get());
    return RunSelect(stmt.select, &plan);
  }();
  MAD_ASSIGN_OR_RETURN(result, std::move(executed));
  result.kind = QueryResult::Kind::kCommand;
  result.message = std::move(plan) + "-- execution profile --\n" +
                   text::FormatQueryTrace(*trace);
  result.trace = std::move(trace);
  return result;
}

Result<QueryResult> Session::RunShowMetrics(ShowMetricsStatement) {
  QueryResult result;
  result.message =
      text::FormatMetricsSnapshot(Registry::Global().Snapshot());
  return result;
}

Result<QueryResult> Session::RunSetOption(SetOptionStatement stmt) {
  // KnownSessionOptions() (sema.h) is the single source of the option
  // list; it drives dispatch, the analyzer's MQL0106 suggestions, and the
  // "available: ..." list here, so the three cannot drift apart.
  const std::vector<std::string>& options = KnownSessionOptions();
  for (const std::string& option : options) {
    if (!EqualsIgnoreCase(stmt.option, option)) continue;
    if (option == "SYNC") return SetSync(stmt.value);
    if (option == "PIN SNAPSHOT") return SetPinSnapshot(stmt.value);
    return SetTrace(stmt.value);
  }
  std::string available;
  for (const std::string& option : options) {
    if (!available.empty()) available += ", ";
    available += option;
  }
  return Status::InvalidArgument("unknown session option '" + stmt.option +
                                 "'; available: " + available);
}

Result<QueryResult> Session::SetSync(int64_t value) {
  if (value != 0 && value != 1) {
    return Status::InvalidArgument("SYNC must be ON/1 or OFF/0");
  }
  options_.sync = value == 1;
  if (durable_ != nullptr) durable_->set_sync(options_.sync);
  QueryResult result;
  result.message = options_.sync
                       ? "sync on: every mutation is fsync'd"
                       : "sync off: mutations batch in the group-commit "
                         "buffer";
  if (durable_ != nullptr) result.durability = durable_->stats();
  return result;
}

Result<QueryResult> Session::SetPinSnapshot(int64_t value) {
  if (value != 0 && value != 1) {
    return Status::InvalidArgument("PIN SNAPSHOT must be ON/1 or OFF/0");
  }
  options_.pin_snapshot = value == 1;
  QueryResult result;
  if (options_.pin_snapshot) {
    RefreshSnapshotPin();
    result.epoch = snapshot_pin_.epoch();
    result.message = "snapshot pinned at epoch " +
                     std::to_string(snapshot_pin_.epoch()) +
                     ": reads outside transactions stay at this snapshot "
                     "(the session's own writes advance it)";
  } else {
    // Release eagerly so GC can reclaim the snapshot's versions now, not
    // at session close.
    snapshot_pin_.Release();
    result.message = "snapshot pin released: reads follow the newest epoch";
  }
  return result;
}

Result<QueryResult> Session::SetTrace(int64_t value) {
  if (value != 0 && value != 1) {
    return Status::InvalidArgument("TRACE must be ON/1 or OFF/0");
  }
  options_.trace = value == 1;
  QueryResult result;
  result.message = options_.trace
                       ? "trace on: every statement records an operator "
                         "span tree"
                       : "trace off";
  return result;
}

Result<QueryResult> Session::RunOpen(OpenStatement stmt) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("OPEN"));
  DurabilityOptions options;
  options.sync = options_.sync;
  MAD_ASSIGN_OR_RETURN(std::unique_ptr<DurableDatabase> durable,
                       DurableDatabase::Open(stmt.directory, options));
  // Swap the session over: molecule types registered against the previous
  // database describe structures that may not exist in the new one. The
  // snapshot pin, the pins of earlier results and the kept derivation
  // snapshot reference the previous database and must go first.
  snapshot_pin_.Release();
  ReleaseResultPins();
  kept_snapshot_.reset();
  durable_ = std::move(durable);
  db_ = &durable_->database();
  registry_.clear();
  if (options_.pin_snapshot) RefreshSnapshotPin();

  DurabilityStats stats = durable_->stats();
  QueryResult result;
  result.message =
      "opened '" + stmt.directory + "' at generation " +
      std::to_string(stats.generation) +
      (stats.created_fresh
           ? " (fresh)"
           : " (" + std::to_string(stats.replayed_records) +
                 " WAL record(s) replayed" +
                 (stats.wal_torn_tail
                      ? ", torn tail of " +
                            std::to_string(stats.wal_discarded_bytes) +
                            " byte(s) discarded"
                      : "") +
                 ")");
  result.durability = std::move(stats);
  return result;
}

Result<QueryResult> Session::RunCheckpoint(CheckpointStatement) {
  MAD_RETURN_IF_ERROR(RequireNoTransaction("CHECKPOINT"));
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "CHECKPOINT requires a durable database; OPEN '<directory>' first");
  }
  MAD_RETURN_IF_ERROR(durable_->Checkpoint());
  DurabilityStats stats = durable_->stats();
  QueryResult result;
  result.message = "checkpoint written: generation " +
                   std::to_string(stats.generation) + ", " +
                   std::to_string(stats.last_checkpoint_bytes) + " byte(s)";
  result.durability = std::move(stats);
  return result;
}

Result<QueryResult> Session::RunCheck(CheckStatement stmt) {
  // The diagnostics travel structurally; callers that hold the source text
  // (the shell, mql_lint) render them with carets. The message is just the
  // verdict line.
  QueryResult result;
  if (stmt.inner != nullptr) {
    result.diagnostics = AnalyzeStatement(*db_, registry_, stmt.inner->value,
                                          AnalyzerContext{txn_ != nullptr});
  }
  if (result.diagnostics.empty()) {
    result.message = "CHECK: no issues found";
    return result;
  }
  size_t errors = 0;
  size_t warnings = 0;
  for (const Diagnostic& diag : result.diagnostics) {
    (diag.severity() == Severity::kError ? errors : warnings) += 1;
  }
  result.message = "CHECK: " + std::to_string(errors) + " error(s), " +
                   std::to_string(warnings) + " warning(s)";
  return result;
}

Result<QueryResult> Session::RunDelete(DeleteStatement stmt) {
  std::vector<AtomId> doomed;
  {
    ReaderLock read_lock(db_->mutex());
    const ReadView view = CurrentView();
    if (stmt.predicate != nullptr) {
      MAD_ASSIGN_OR_RETURN(
          doomed, MatchingAtoms(*db_, stmt.atom_type, stmt.predicate, view));
    } else {
      MAD_ASSIGN_OR_RETURN(const AtomType* at,
                           db_->GetAtomType(stmt.atom_type));
      for (const Atom* atom : at->occurrence().SnapshotAt(view)) {
        doomed.push_back(atom->id);
      }
    }
  }
  QueryResult result;
  for (AtomId id : doomed) {
    MAD_RETURN_IF_ERROR(
        WrapConflict(db_->DeleteAtom(stmt.atom_type, id, txn_.get())));
    ++result.affected;
  }
  result.message = std::to_string(result.affected) + " atom(s) deleted from '" +
                   stmt.atom_type + "'";
  return result;
}

Result<QueryResult> Session::RunBegin(BeginStatement) {
  // The analyzer already warned (MQL0505); executing a nested BEGIN keeps
  // the open transaction rather than silently discarding its writes.
  if (txn_ != nullptr) {
    QueryResult result;
    result.message = "transaction #" + std::to_string(txn_->id()) +
                     " is already open; BEGIN ignored";
    result.epoch = txn_->snapshot_epoch();
    return result;
  }
  txn_ = db_->Begin();
  QueryResult result;
  result.message = "transaction #" + std::to_string(txn_->id()) +
                   " started at epoch " +
                   std::to_string(txn_->snapshot_epoch());
  result.epoch = txn_->snapshot_epoch();
  return result;
}

Result<QueryResult> Session::RunCommit(CommitStatement) {
  if (txn_ == nullptr) {
    QueryResult result;
    result.message = "no open transaction; COMMIT ignored";
    return result;
  }
  const uint64_t id = txn_->id();
  const size_t ops = txn_->op_count();
  Status status = txn_->Commit();
  txn_.reset();
  MAD_RETURN_IF_ERROR(WrapConflict(std::move(status)));
  QueryResult result;
  result.affected = ops;
  result.epoch = db_->current_epoch();
  result.message = "transaction #" + std::to_string(id) + " committed " +
                   std::to_string(ops) + " op" + (ops == 1 ? "" : "s") +
                   " at epoch " + std::to_string(result.epoch);
  if (durable_ != nullptr) result.durability = durable_->stats();
  return result;
}

Result<QueryResult> Session::RunRollback(RollbackStatement) {
  if (txn_ == nullptr) {
    QueryResult result;
    result.message = "no open transaction; ROLLBACK ignored";
    return result;
  }
  const uint64_t id = txn_->id();
  const size_t ops = txn_->op_count();
  Status status = txn_->Rollback();
  txn_.reset();
  MAD_RETURN_IF_ERROR(status);
  QueryResult result;
  result.message = "transaction #" + std::to_string(id) + " rolled back " +
                   std::to_string(ops) + " op" + (ops == 1 ? "" : "s");
  return result;
}

Result<QueryResult> Session::RunShowTransactions(ShowTransactionsStatement) {
  QueryResult result;
  result.message =
      text::FormatEpochStats(db_->GetEpochStats(), db_->ActiveTransactions());
  result.epoch = db_->current_epoch();
  return result;
}

}  // namespace mql
}  // namespace mad
