#ifndef MAD_TEXT_PRINTER_H_
#define MAD_TEXT_PRINTER_H_

#include <optional>
#include <string>
#include <vector>

#include "er/er_model.h"
#include "molecule/molecule_type.h"
#include "molecule/recursive.h"
#include "molecule/statistics.h"
#include "storage/database.h"
#include "storage/durable_database.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mad {
namespace text {

/// Fig. 4 style: the formal specification of a database — every atom type
/// as <name, description, occurrence> and every link type as
/// <name, {types}, {links}>. At most `max_items` occurrence elements are
/// printed per type ("..." marks truncation).
std::string FormatDatabaseSpec(const Database& db, size_t max_items = 4);

/// Fig. 1 (lower part) style: the MAD diagram — atom types as boxes-by-name
/// and link types as edges.
std::string FormatMadDiagram(const Database& db);

/// Fig. 1 (upper part) style: the ER diagram with cardinalities.
std::string FormatErDiagram(const er::ErSchema& er);

/// Reads the atoms of one atom type for rendering. The store is resolved
/// once, at construction; each atom is then read at `view` when one is
/// given (AtomStore::FindAt) and at the head otherwise. A SELECT's result
/// renders at the view it read at (mql::QueryResult::view), so the values
/// printed are the ones its WHERE saw; other callers read the head. The
/// caller holds at least a shared lock on db.mutex() while it renders,
/// when writers may run concurrently.
class AtomReader {
 public:
  AtomReader(const Database& db, const std::string& type_name,
             const std::optional<ReadView>& view);

  /// Appends the atom as "<'SP', 1000>" — "<#id?>" when no version of it is
  /// visible, "<?>" for an unknown atom type. Line breaks inside string
  /// values are followed by `indent` spaces, matching a listing indented
  /// by that much.
  void Append(AtomId id, std::string* out, size_t indent = 0) const;

 private:
  const AtomStore* store_ = nullptr;
  std::optional<ReadView> view_;
};

/// One atom as "<SP, 1000>", read at the head.
std::string FormatAtom(const Database& db, const std::string& type_name,
                       AtomId id);

/// Fig. 2 style: one molecule — per description node the atoms, then the
/// component links. Reads the head.
std::string FormatMolecule(const Database& db, const MoleculeDescription& md,
                           MoleculeView molecule);

/// Fig. 2 style: a molecule type — structure line plus up to
/// `max_molecules` molecules of the set, each indented by four spaces —
/// appended to `out`, with atoms read at `view` (see AtomReader).
void AppendMoleculeType(const Database& db, const MoleculeType& mt,
                        size_t max_molecules,
                        const std::optional<ReadView>& view, std::string* out);

/// AppendMoleculeType at the head.
std::string FormatMoleculeType(const Database& db, const MoleculeType& mt,
                               size_t max_molecules = 4);

/// A recursive molecule as an indented component tree (levels), appended
/// to `out`; `reader` reads rd.atom_type.
void AppendRecursiveMolecule(const AtomReader& reader,
                             const RecursiveDescription& rd,
                             const RecursiveMolecule& molecule,
                             std::string* out);

/// AppendRecursiveMolecule at the head.
std::string FormatRecursiveMolecule(const Database& db,
                                    const RecursiveDescription& rd,
                                    const RecursiveMolecule& molecule);

/// Fig. 3: the relational-vs-MAD concept correspondence table.
std::string FormatConceptComparison();

/// One line of derivation-run counters, e.g.
/// "derived 5 molecules: 23 atoms visited, 41 links scanned, 0.18 ms".
std::string FormatDerivationStats(const DerivationStats& stats);

/// One line of durability counters, e.g.
/// "durable at gen 2 (sync off): 17 records logged (482 bytes), 3 syncs,
/// 1 checkpoint".
std::string FormatDurabilityStats(const DurabilityStats& stats);

/// One-paragraph rendering of the MVCC epoch machinery for SHOW
/// TRANSACTIONS: current/oldest-pinned epoch, reader and version counts,
/// plus one line per open transaction.
std::string FormatEpochStats(const EpochStats& stats,
                             const std::vector<TransactionInfo>& transactions);

/// The operator span tree of one traced statement, indented by nesting:
///
///   trace: 3 spans, total 135.5 us
///     select  133.8 us  rows out 1
///       sigma [(a.tag = 'p')]  44.3 us  2 -> 1
///         derive [5 atoms admitted]  19.7 us  2 -> 1
///
/// Long runs of same-named siblings (e.g. thousands of wal.append spans)
/// are collapsed into the first occurrence plus an aggregate line.
std::string FormatQueryTrace(const QueryTrace& trace);

/// Stable machine-readable form:
/// {"total_ns": N, "spans": [{"id", "parent", "name", "note", "start_ns",
/// "duration_ns", "rows_in", "rows_out"}, ...]} — spans in start
/// order, parent always before child.
std::string QueryTraceToJson(const QueryTrace& trace);

/// Human-readable metrics table: one line per instrument, sorted by name.
std::string FormatMetricsSnapshot(const MetricsSnapshot& snapshot);

/// Stable machine-readable form:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {"count",
/// "sum_us", "max_us", "p50_us", "p99_us"}, ...}} — keys sorted by name.
std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot);

}  // namespace text
}  // namespace mad

#endif  // MAD_TEXT_PRINTER_H_
