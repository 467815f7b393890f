#include "layer_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <variant>

#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/kernels.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "molecule/recursive.h"
#include "mql/optimizer.h"
#include "mql/parser.h"
#include "mql/sema.h"
#include "mql/session.h"
#include "mql/translator.h"
#include "server/protocol.h"
#include "server/result_render.h"
#include "storage/column.h"
#include "util/metrics.h"
#include "util/sync.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

/// Microseconds since the previous Lap() (or construction).
class Stopwatch {
 public:
  double Lap() {
    Clock::time_point now = Clock::now();
    double us = std::chrono::duration<double, std::micro>(now - last_).count();
    last_ = now;
    return us;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

struct HistogramReading {
  uint64_t count = 0;
  uint64_t sum_us = 0;
};

HistogramReading ReadHistogram(const std::string& name) {
  for (const mad::MetricSample& sample :
       mad::Registry::Global().Snapshot().samples) {
    if (sample.name == name) return {sample.count, sample.sum_us};
  }
  return {};
}

// ---------------------------------------------------------------------------
// Replay bookkeeping.

/// Layer self times whose sum must match mql.execute_us + server.render_us.
const char* const kPathLayers[] = {
    "mql.parse_us",      "mql.analyze_us",          "mql.plan_us",
    "expr.compile_us",   "molecule.restrict_us",    "molecule.engine_create_us",
    "molecule.derive_us", "molecule.project_us",    "expr.eval_us",
    "storage.snapshot_us", "storage.commit_us",     "server.render_us"};

/// Figures reported per occurrence of their operation rather than per
/// statement of the mix.
const std::set<std::string> kPerOccurrence = {
    "mql.update_us", "storage.commit_us", "molecule.closure_us",
    "molecule.closure_atoms"};

/// One replayed operation: summed figures plus how often each occurred.
struct Sample {
  std::map<std::string, double> sum;
  std::map<std::string, double> occurrences;
  void Add(const std::string& name, double value) {
    sum[name] += value;
    occurrences[name] += 1;
  }
  double Get(const std::string& name) const {
    auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }
};

struct ClassSamples {
  std::string name;
  size_t statements_per_op = 1;
  std::vector<Sample> reps;

  double MedianOf(const std::string& metric) const {
    std::vector<double> values;
    for (const Sample& s : reps) values.push_back(s.Get(metric));
    return Median(std::move(values));
  }
  double OccurrencesPerRep(const std::string& metric) const {
    double total = 0;
    for (const Sample& s : reps) {
      auto it = s.occurrences.find(metric);
      if (it != s.occurrences.end()) total += it->second;
    }
    return reps.empty() ? 0.0 : total / static_cast<double>(reps.size());
  }
};

/// The replay's view of the session state: registered molecule types.
using MoleculeTypes = std::map<std::string, mad::MoleculeDescription>;

/// Root seeding exactly as the session does it: the index bucket of an
/// indexed root equality (occurrence order restored), else the column
/// kernel's pass rows of the first root comparison. nullopt: no seed.
std::optional<std::vector<mad::AtomId>> SeedRoots(
    const mad::Database& db, const mad::MoleculeDescription& md,
    const mad::mql::PushdownPlan& plan, const mad::ReadView& view) {
  auto root_at = db.GetAtomType(md.root_node().type_name);
  if (!root_at.ok()) return std::nullopt;
  const mad::AtomStore& store = (*root_at)->occurrence();
  if (!store.HeadVisibleAt(view)) return std::nullopt;
  if (plan.seed.has_value()) {
    std::vector<std::pair<size_t, mad::AtomId>> ordered;
    for (mad::AtomId id : plan.seed->index->Lookup(plan.seed->value)) {
      std::optional<size_t> pos = store.PositionOf(id);
      if (pos.has_value()) ordered.emplace_back(*pos, id);
    }
    std::sort(ordered.begin(), ordered.end());
    std::vector<mad::AtomId> seeded;
    seeded.reserve(ordered.size());
    for (const auto& entry : ordered) seeded.push_back(entry.second);
    return seeded;
  }
  if (!plan.scan_seed.has_value()) return std::nullopt;
  const mad::ColumnSet& columns = store.columns();
  const mad::Column* column = columns.column(plan.scan_seed->value_slot);
  mad::expr::RowBitmaps bits;
  if (column == nullptr ||
      !mad::expr::BuildCompareBitmaps(*column, columns.rows(),
                                      plan.scan_seed->op, plan.scan_seed->value,
                                      plan.scan_seed->attr_on_left, &bits) ||
      bits.any_err) {
    return std::nullopt;
  }
  std::vector<mad::AtomId> seeded;
  for (size_t r = 0; r < columns.rows(); ++r) {
    if (bits.Pass(r)) seeded.push_back(columns.IdAt(r));
  }
  return seeded;
}

/// Replays one SELECT layer by layer, in the order Session::RunSelect runs
/// them, timing each public call.
mad::Status ReplaySelectLayers(mad::Database& db,
                               const MoleculeTypes& registry,
                               const std::string& text, Sample* s) {
  Stopwatch sw;
  MAD_ASSIGN_OR_RETURN(mad::mql::Statement stmt,
                       mad::mql::ParseStatement(text));
  s->Add("mql.parse_us", sw.Lap());
  std::vector<mad::mql::Diagnostic> diags =
      mad::mql::AnalyzeStatement(db, registry, stmt);
  s->Add("mql.analyze_us", sw.Lap());
  const auto* select = std::get_if<mad::mql::SelectStatement>(&stmt);
  if (select == nullptr) return mad::Status::Internal("not a SELECT: " + text);

  sw.Lap();
  mad::ReaderLock lock(db.mutex());
  mad::EpochPin pin = db.PinEpoch();
  const mad::ReadView view = pin.view();
  s->Add("storage.snapshot_us", sw.Lap());

  // Plan: resolve the FROM clause, split the WHERE for pushdown.
  const mad::mql::StructureNode& root = *select->from.structure;
  const bool bare =
      select->from.molecule_name.empty() && root.branches.empty();
  std::optional<mad::MoleculeDescription> md;
  std::optional<mad::RecursiveDescription> rd;
  auto registered = bare ? registry.find(root.atom) : registry.end();
  if (registered != registry.end()) {
    md = registered->second;
  } else {
    MAD_ASSIGN_OR_RETURN(mad::mql::TranslatedFrom translated,
                         mad::mql::TranslateStructure(db, root));
    md = std::move(translated.description);
    rd = std::move(translated.recursive);
  }
  if (rd.has_value()) {
    s->Add("mql.plan_us", sw.Lap());
    // Recursive structure: the closure operator over every part; the WHERE
    // then picks the closures to keep.
    MAD_ASSIGN_OR_RETURN(std::vector<mad::RecursiveMolecule> closures,
                         mad::DeriveRecursiveMolecules(db, *rd, view));
    const double closure_us = sw.Lap();
    double atoms = 0;
    double links = 0;
    for (const mad::RecursiveMolecule& m : closures) {
      atoms += static_cast<double>(m.atom_count());
      links += static_cast<double>(m.links().size());
    }
    s->Add("molecule.derive_us", closure_us);
    s->Add("molecule.closure_us", closure_us);
    s->Add("molecule.closure_atoms", atoms);
    s->Add("molecule.atoms_visited", atoms);
    s->Add("molecule.links_scanned", links);
    sw.Lap();
    if (select->where != nullptr) {
      // σ over the closures. The session's qualifier is internal; for the
      // workload's predicates, which bind `root` only, it resolves the
      // references, the atom type and the root, then makes one
      // EvalPredicate call per closure, as here. Rejected closures are freed
      // inside σ, as in the session.
      MAD_ASSIGN_OR_RETURN(const mad::AtomType* at,
                           db.GetAtomType(rd->atom_type));
      std::vector<mad::RecursiveMolecule> kept;
      for (mad::RecursiveMolecule& m : closures) {
        std::vector<const mad::expr::Expr*> refs;
        select->where->CollectAttrRefs(&refs);
        MAD_ASSIGN_OR_RETURN(at, db.GetAtomType(rd->atom_type));
        mad::expr::BindingSet bindings;
        bindings.Bind("root", &at->description(),
                      at->occurrence().Find(m.root()));
        MAD_ASSIGN_OR_RETURN(
            bool hit, mad::expr::EvalPredicate(*select->where, bindings));
        if (hit) kept.push_back(std::move(m));
      }
      std::vector<mad::RecursiveMolecule>().swap(closures);
      s->Add("molecule.restrict_us", sw.Lap());
    }
    return mad::Status::OK();
  }
  std::optional<mad::mql::PushdownPlan> plan;
  if (select->where != nullptr) {
    MAD_ASSIGN_OR_RETURN(
        plan, mad::mql::PlanPredicatePushdown(db, *md, select->where));
  }
  s->Add("mql.plan_us", sw.Lap());

  mad::DerivationOptions options{0};  // the session default parallelism
  options.view = view;
  std::vector<mad::expr::CompiledPredicate> programs;
  std::optional<std::vector<mad::AtomId>> seeded;
  if (plan.has_value()) {
    programs.reserve(plan->node_filters.size() + 1);
    for (const mad::mql::NodeFilter& filter : plan->node_filters) {
      MAD_ASSIGN_OR_RETURN(mad::expr::CompiledPredicate program,
                           mad::expr::CompiledPredicate::Compile(
                               db, *md, filter.predicate, view));
      programs.push_back(std::move(program));
      options.node_filters.emplace_back(filter.node_index, &programs.back());
    }
    if (plan->residual != nullptr) {
      MAD_ASSIGN_OR_RETURN(mad::expr::CompiledPredicate program,
                           mad::expr::CompiledPredicate::Compile(
                               db, *md, plan->residual, view));
      programs.push_back(std::move(program));
      options.residual = &programs.back();
    }
    s->Add("expr.compile_us", sw.Lap());
    seeded = SeedRoots(db, *md, *plan, view);
    s->Add("molecule.restrict_us", sw.Lap());
  }

  MAD_ASSIGN_OR_RETURN(mad::DerivationEngine engine,
                       mad::DerivationEngine::Create(db, *md, options));
  s->Add("molecule.engine_create_us", sw.Lap());
  mad::DerivationStats stats;
  std::vector<mad::Molecule> molecules;
  if (seeded.has_value()) {
    MAD_ASSIGN_OR_RETURN(molecules, engine.DeriveForRoots(*seeded, &stats));
  } else {
    MAD_ASSIGN_OR_RETURN(molecules, engine.DeriveAll(&stats));
  }
  s->Add("molecule.derive_us", sw.Lap());
  s->Add("molecule.atoms_visited", static_cast<double>(stats.atoms_visited));
  s->Add("molecule.links_scanned", static_cast<double>(stats.links_scanned));
  s->Add("molecule.roots", static_cast<double>(stats.roots));
  s->Add("molecule.molecules", static_cast<double>(molecules.size()));

  mad::MoleculeType result("query", *md, std::move(molecules));
  if (!select->select_all) {
    MAD_ASSIGN_OR_RETURN(
        mad::MoleculeProjectionSpec spec,
        mad::mql::TranslateProjection(result.description(), select->items));
    MAD_ASSIGN_OR_RETURN(result,
                         mad::ProjectMolecules(db, result, spec, "query"));
  }
  s->Add("molecule.project_us", sw.Lap());

  // Off the path: the same fan-out at parallelism 1.
  mad::DerivationOptions serial = options;
  serial.parallelism = 1;
  MAD_ASSIGN_OR_RETURN(mad::DerivationEngine serial_engine,
                       mad::DerivationEngine::Create(db, *md, serial));
  sw.Lap();
  if (seeded.has_value()) {
    MAD_RETURN_IF_ERROR(serial_engine.DeriveForRoots(*seeded).status());
  } else {
    MAD_RETURN_IF_ERROR(serial_engine.DeriveAll().status());
  }
  s->Add("molecule.derive_serial_us", sw.Lap());
  return mad::Status::OK();
}

using StagedUpdates =
    std::vector<std::pair<mad::AtomId, std::vector<mad::Value>>>;

/// The session's UPDATE resolution through the public evaluator: a scan of
/// the atom type at `view` evaluating the WHERE per atom, then the SET
/// expressions of each target. Caller holds the shared lock.
mad::Result<StagedUpdates> ResolveUpdate(
    const mad::Database& db, const mad::mql::UpdateStatement& update,
    const mad::ReadView& view) {
  MAD_ASSIGN_OR_RETURN(const mad::AtomType* at,
                       db.GetAtomType(update.atom_type));
  const mad::Schema& schema = at->description();
  const mad::AtomStore& store = at->occurrence();
  std::vector<size_t> slots;
  for (const auto& assignment : update.assignments) {
    MAD_ASSIGN_OR_RETURN(size_t slot, schema.IndexOf(assignment.first));
    slots.push_back(slot);
  }
  MAD_RETURN_IF_ERROR(mad::expr::ValidateAgainstSchema(
      *update.predicate, update.atom_type, schema));
  const bool head = store.HeadVisibleAt(view);
  std::vector<mad::AtomId> targets;
  auto consider = [&](const mad::Atom& atom) -> mad::Status {
    MAD_ASSIGN_OR_RETURN(bool hit,
                         mad::expr::EvalOnAtom(*update.predicate,
                                               update.atom_type, schema, atom));
    if (hit) targets.push_back(atom.id);
    return mad::Status::OK();
  };
  if (head) {
    for (const mad::Atom& atom : store.atoms()) {
      MAD_RETURN_IF_ERROR(consider(atom));
    }
  } else {
    for (const mad::Atom* atom : store.SnapshotAt(view)) {
      MAD_RETURN_IF_ERROR(consider(*atom));
    }
  }
  StagedUpdates staged;
  for (mad::AtomId id : targets) {
    const mad::Atom* atom =
        head ? store.Find(id) : store.FindVersionAt(id, view);
    if (atom == nullptr) continue;
    mad::expr::BindingSet bindings;
    bindings.Bind(update.atom_type, &schema, atom);
    std::vector<mad::Value> values = atom->values;
    for (size_t i = 0; i < slots.size(); ++i) {
      MAD_ASSIGN_OR_RETURN(
          values[slots[i]],
          mad::expr::EvalValue(*update.assignments[i].second, bindings));
    }
    staged.emplace_back(id, std::move(values));
  }
  return staged;
}

/// Replays one transfer layer by layer through public functions: parse and
/// analyze each statement, then Database::Begin, per UPDATE its resolution
/// (ResolveUpdate) and Database::UpdateAtom, and Transaction::Commit.
mad::Status ReplayTransferLayers(mad::Database& db,
                                 const MoleculeTypes& registry,
                                 const Transfer& transfer, Sample* s) {
  Stopwatch sw;
  std::vector<mad::mql::Statement> statements;
  mad::mql::AnalyzerContext context;
  for (const std::string& text : TransferStatements(transfer)) {
    sw.Lap();
    MAD_ASSIGN_OR_RETURN(mad::mql::Statement stmt,
                         mad::mql::ParseStatement(text));
    s->Add("mql.parse_us", sw.Lap());
    mad::mql::AnalyzeStatement(db, registry, stmt, context);
    s->Add("mql.analyze_us", sw.Lap());
    context.in_transaction =
        !std::holds_alternative<mad::mql::CommitStatement>(stmt);
    statements.push_back(std::move(stmt));
  }
  double storage_us = 0;
  double eval_us = 0;
  sw.Lap();
  std::unique_ptr<mad::Transaction> txn = db.Begin();
  storage_us += sw.Lap();
  for (const mad::mql::Statement& stmt : statements) {
    const auto* update = std::get_if<mad::mql::UpdateStatement>(&stmt);
    if (update == nullptr) continue;
    StagedUpdates staged;
    {
      mad::ReaderLock lock(db.mutex());
      sw.Lap();
      MAD_ASSIGN_OR_RETURN(staged, ResolveUpdate(db, *update, txn->view()));
      eval_us += sw.Lap();
    }
    if (staged.size() != 1) {
      return mad::Status::Internal("transfer UPDATE matched " +
                                   std::to_string(staged.size()) + " parts");
    }
    for (auto& [id, values] : staged) {
      MAD_RETURN_IF_ERROR(db.UpdateAtom(update->atom_type, id,
                                        std::move(values), txn.get()));
    }
    storage_us += sw.Lap();
  }
  MAD_RETURN_IF_ERROR(txn->Commit());
  txn.reset();
  storage_us += sw.Lap();
  s->Add("expr.eval_us", eval_us);
  s->Add("storage.commit_us", storage_us);
  return mad::Status::OK();
}

/// Session::Execute of `text` (no wire), then the server's render and the
/// frame encode/decode of the RESULT. Returns the reply the server would
/// send.
mad::Result<mad::server::Message> ExecuteAndRender(mad::mql::Session& session,
                                                   const std::string& text,
                                                   Sample* s) {
  Stopwatch sw;
  mad::Result<mad::mql::QueryResult> result = session.Execute(text);
  const double execute_us = sw.Lap();
  s->Add("mql.execute_us", execute_us);
  if (text.rfind("UPDATE", 0) == 0) s->Add("mql.update_us", execute_us);
  if (!result.ok()) return result.status();
  mad::server::Message reply;
  reply.type = mad::server::MessageType::kResult;
  reply.request_id = 1;
  reply.epoch = result->epoch;
  reply.affected = result->affected;
  sw.Lap();
  {
    mad::ReaderLock lock(session.database().mutex());
    reply.text = mad::server::RenderQueryResult(session.database(), *result);
  }
  s->Add("server.render_us", sw.Lap());
  s->Add("server.render_bytes", static_cast<double>(reply.text.size()));
  std::string frame = mad::server::FrameMessage(reply);
  s->Add("server.encode_us", sw.Lap());
  mad::server::FrameDecoder decoder;
  decoder.Feed(frame);
  mad::server::Message decoded;
  mad::Result<bool> complete = decoder.Next(&decoded);
  s->Add("server.decode_us", sw.Lap());
  if (!complete.ok() || !*complete || decoded.text != reply.text) {
    return mad::Status::Internal("frame round trip failed for " + text);
  }
  return reply;
}

const char* UnitOf(const std::string& name) {
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
    return "us";
  }
  if (name == "server.render_bytes" ||
      name == "storage.wal_bytes_per_commit") {
    return "bytes";
  }
  if (name == "molecule.yield") return "ratio";
  return "count";
}

}  // namespace

ProbedLoop RunProbedLoop(Fixture& fixture, const Workload& workload,
                         std::vector<mad::server::Client>& clients,
                         uint64_t seed, double seconds) {
  constexpr int kPairs = 4;
  constexpr auto kProbeInterval = std::chrono::milliseconds(10);
  ProbedLoop out;
  mad::server::Client pinger;
  mad::Status connected =
      pinger.Connect("127.0.0.1", fixture.server().port(), "servebench-ping");
  std::vector<double> ping_us;
  std::vector<double> exclusive_us;
  std::vector<double> shared_us;
  std::string ping_problem;
  HistogramReading server_total;
  mad::DurabilityStats wal_total;
  std::vector<double> p50_ratios;

  for (int pair = 0; pair < kPairs && connected.ok(); ++pair) {
    // Odd pairs run the probed window first, so neither side always gets
    // the first window after a pause.
    LoopResult untraced;
    auto run_untraced = [&] {
      untraced = RunClosedLoop(workload, clients, seed, seconds / (2 * kPairs));
    };
    if (pair % 2 == 0) run_untraced();

    std::atomic<bool> stop{false};
    std::thread ping_thread([&] {
      while (!stop.load()) {
        Clock::time_point start = Clock::now();
        mad::Status s = pinger.Ping();
        if (!s.ok()) {
          ping_problem = "PING failed: " + s.ToString();
          return;
        }
        ping_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
        std::this_thread::sleep_for(kProbeInterval);
      }
    });
    std::thread lock_thread([&] {
      mad::SharedMutex& mu = fixture.db().mutex();
      while (!stop.load()) {
        Stopwatch sw;
        { mad::WriterLock lock(mu); exclusive_us.push_back(sw.Lap()); }
        sw.Lap();
        { mad::ReaderLock lock(mu); shared_us.push_back(sw.Lap()); }
        std::this_thread::sleep_for(kProbeInterval);
      }
    });
    const HistogramReading before = ReadHistogram("server.statement_us");
    mad::DurabilityStats wal_before;
    if (fixture.durable() != nullptr) wal_before = fixture.durable()->stats();
    LoopResult probed =
        RunClosedLoop(workload, clients, seed, seconds / (2 * kPairs));
    const HistogramReading after = ReadHistogram("server.statement_us");
    if (fixture.durable() != nullptr) {
      mad::DurabilityStats wal_after = fixture.durable()->stats();
      wal_total.bytes_appended +=
          wal_after.bytes_appended - wal_before.bytes_appended;
      wal_total.flush_count += wal_after.flush_count - wal_before.flush_count;
    }
    stop.store(true);
    ping_thread.join();
    lock_thread.join();
    server_total.count += after.count - before.count;
    server_total.sum_us += after.sum_us - before.sum_us;
    if (pair % 2 == 1) run_untraced();

    const double untraced_p50 = Percentile(untraced.latency_us, 0.5);
    if (untraced_p50 > 0) {
      p50_ratios.push_back(Percentile(probed.latency_us, 0.5) / untraced_p50);
    }
    out.untraced.elapsed_s += untraced.elapsed_s;
    out.probed.elapsed_s += probed.elapsed_s;
    out.untraced.Merge(untraced);
    out.probed.Merge(probed);
    if (!ping_problem.empty()) break;
  }
  if (!connected.ok()) {
    ping_problem = "ping connection: " + connected.ToString();
  }
  if (!ping_problem.empty()) {
    out.probed.stream_lost = true;
    out.probed.NoteProblem(ping_problem);
  } else {
    (void)pinger.Close();
  }
  out.trace_overhead = Median(p50_ratios) - 1.0;

  const double server_mean_us =
      server_total.count > 0 ? static_cast<double>(server_total.sum_us) /
                                   static_cast<double>(server_total.count)
                             : 0.0;
  out.metrics.push_back({"server.ping_rtt_us", "us", Median(ping_us)});
  out.metrics.push_back(
      {"server.queue_us", "us", Mean(out.probed.latency_us) - server_mean_us});
  out.metrics.push_back({"storage.lock_wait_us", "us", Mean(exclusive_us)});
  out.metrics.push_back(
      {"storage.lock_wait_shared_us", "us", Mean(shared_us)});
  if (fixture.durable() != nullptr) {
    const double commits = static_cast<double>(
        std::max<uint64_t>(1, out.probed.transfers_committed));
    out.metrics.push_back(
        {"storage.wal_bytes_per_commit", "bytes",
         static_cast<double>(wal_total.bytes_appended) / commits});
    out.metrics.push_back({"storage.wal_flushes", "count",
                           static_cast<double>(wal_total.flush_count)});
  }
  return out;
}

Replay RunReplay(Fixture& fixture, const Workload& workload, uint64_t seed,
                 double seconds) {
  Replay out;
  mad::Database& db = fixture.db();
  mad::mql::Session session(&db);
  MoleculeTypes registry;
  for (const std::string& text : SessionPrelude(workload.kind())) {
    mad::Result<mad::mql::QueryResult> r = session.Execute(text);
    mad::Result<mad::mql::Statement> stmt = mad::mql::ParseStatement(text);
    if (!r.ok() || !stmt.ok()) {
      out.first_problem = "replay prelude failed: " + text;
      ++out.mismatches;
      return out;
    }
    const auto& select = std::get<mad::mql::SelectStatement>(*stmt);
    auto translated =
        mad::mql::TranslateStructure(db, *select.from.structure);
    if (translated.ok() && translated->description.has_value()) {
      registry.emplace(select.from.molecule_name, *translated->description);
    }
  }

  std::vector<ClassSamples> classes;
  for (size_t c = 0; c < workload.classes().size(); ++c) {
    ClassSamples cs;
    cs.name = workload.classes()[c].name;
    if (workload.IsTransfer(c)) cs.statements_per_op = 4;
    classes.push_back(std::move(cs));
  }
  auto problem = [&out](const std::string& what) {
    ++out.mismatches;
    if (out.first_problem.empty()) out.first_problem = what;
  };

  // The replay draws its operations from a key stream of its own; transfers
  // use connection 0's part set (the loops are idle by now).
  KeyStream keys(workload, seed, 1000, 0);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  constexpr size_t kMinRounds = 5;
  for (size_t round = 0;
       round < kMinRounds || Clock::now() < deadline; ++round) {
    for (size_t c = 0; c < classes.size(); ++c) {
      Workload::Op op = keys.NextOf(c);
      Sample s;
      if (op.text != nullptr) {
        // Alternate which side runs first so neither always sees the
        // caches the other warmed.
        mad::Status layers = mad::Status::OK();
        if (round % 2 == 0) {
          layers = ReplaySelectLayers(db, registry, *op.text, &s);
        }
        mad::Result<mad::server::Message> reply =
            ExecuteAndRender(session, *op.text, &s);
        if (round % 2 == 1) {
          layers = ReplaySelectLayers(db, registry, *op.text, &s);
        }
        if (!layers.ok()) {
          problem("replay of '" + *op.text + "': " + layers.ToString());
        }
        if (!reply.ok()) {
          problem("replayed '" + *op.text + "': " + reply.status().ToString());
        } else if (!workload.Check(*op.text, reply->text)) {
          problem("replayed '" + *op.text + "' disagrees with the oracle");
        }
      } else {
        mad::Status layers = mad::Status::OK();
        if (round % 2 == 0) {
          layers = ReplayTransferLayers(db, registry, op.transfer, &s);
        }
        for (const std::string& text : TransferStatements(op.transfer)) {
          mad::Result<mad::server::Message> reply =
              ExecuteAndRender(session, text, &s);
          if (!reply.ok() || (text.rfind("UPDATE", 0) == 0 &&
                              reply->affected != 1)) {
            problem("replayed transfer statement '" + text + "' failed");
            if (session.in_transaction()) (void)session.Execute("ROLLBACK;");
            break;
          }
        }
        if (round % 2 == 1) {
          layers = ReplayTransferLayers(db, registry, op.transfer, &s);
        }
        if (!layers.ok()) problem("transfer replay: " + layers.ToString());
      }
      classes[c].reps.push_back(std::move(s));
    }
  }

  // Per-class table and closure check.
  std::string& t = out.table;
  t += "per-class medians (us) of the single-threaded replay:\n";
  t += "  class        reps   parse analyze   plan compile restrict  create"
       "   derive  project   render | layers  exec+render  ratio\n";
  for (const ClassSamples& cs : classes) {
    std::vector<double> layer_sums;
    std::vector<double> wholes;
    for (const Sample& s : cs.reps) {
      double sum = 0;
      for (const char* layer : kPathLayers) sum += s.Get(layer);
      layer_sums.push_back(sum);
      wholes.push_back(s.Get("mql.execute_us") + s.Get("server.render_us"));
    }
    const double layers = Median(layer_sums);
    const double whole = Median(wholes);
    const double ratio = whole > 0 ? layers / whole : 0.0;
    const bool ok = std::fabs(ratio - 1.0) <= 0.10;
    out.closure_ok = out.closure_ok && ok;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  %-12s %4zu %7.1f %7.1f %6.1f %7.1f %8.1f %7.1f %8.1f "
                  "%8.1f %8.1f | %7.1f %11.1f  %.3f %s\n",
                  cs.name.c_str(), cs.reps.size(), cs.MedianOf("mql.parse_us"),
                  cs.MedianOf("mql.analyze_us"), cs.MedianOf("mql.plan_us"),
                  cs.MedianOf("expr.compile_us"),
                  cs.MedianOf("molecule.restrict_us"),
                  cs.MedianOf("molecule.engine_create_us"),
                  cs.MedianOf("molecule.derive_us"),
                  cs.MedianOf("molecule.project_us"),
                  cs.MedianOf("server.render_us"), layers, whole, ratio,
                  ok ? "ok" : "OVER 10%");
    t += line;
  }

  // Workload figures: per statement of the mix, or per occurrence.
  std::set<std::string> names;
  for (const ClassSamples& cs : classes) {
    for (const Sample& s : cs.reps) {
      for (const auto& entry : s.sum) names.insert(entry.first);
    }
  }
  double statements = 0;
  for (const ClassSamples& cs : classes) {
    statements += static_cast<double>(cs.statements_per_op);
  }
  std::map<std::string, double> value;
  for (const std::string& name : names) {
    double total = 0;
    double occurrences = 0;
    for (const ClassSamples& cs : classes) {
      total += cs.MedianOf(name);
      occurrences += cs.OccurrencesPerRep(name);
    }
    const double per = kPerOccurrence.count(name) ? occurrences : statements;
    value[name] = per > 0 ? total / per : 0.0;
  }
  if (value.count("molecule.roots") && value["molecule.roots"] > 0) {
    value["molecule.yield"] =
        value["molecule.molecules"] / value["molecule.roots"];
  }
  value.erase("molecule.roots");
  value.erase("molecule.molecules");
  for (const auto& [name, v] : value) {
    out.metrics.push_back({name, UnitOf(name), v});
  }
  return out;
}

}  // namespace servebench
