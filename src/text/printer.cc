#include "text/printer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace mad {
namespace text {

namespace {

void AppendUint(uint64_t n, std::string* out) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof(buf), n);
  out->append(buf, r.ptr);
}

/// Indents every line that starts after `from` by `indent` spaces.
void IndentNewlines(size_t from, size_t indent, std::string* out) {
  for (size_t pos = out->find('\n', from); pos != std::string::npos;
       pos = out->find('\n', pos + 1 + indent)) {
    out->insert(pos + 1, indent, ' ');
  }
}

/// "<v1, v2, ...>". Inside a molecule-type listing every line of a molecule
/// is indented by `indent`, and so is a line break inside a string value.
void AppendAtomBody(const Atom& atom, size_t indent, std::string* out) {
  *out += '<';
  for (size_t i = 0; i < atom.values.size(); ++i) {
    if (i > 0) *out += ", ";
    const size_t start = out->size();
    atom.values[i].AppendTo(out);
    if (indent > 0 && atom.values[i].type() == DataType::kString) {
      IndentNewlines(start, indent, out);
    }
  }
  *out += '>';
}

/// Fig. 2's body of one molecule, every line indented by `indent`.
/// `readers[i]` reads node i's atoms; `root` is the root node's index.
void AppendMolecule(const MoleculeDescription& md,
                    const std::vector<AtomReader>& readers, size_t root,
                    MoleculeView molecule, size_t indent,
                    std::string* out) {
  out->append(indent, ' ');
  *out += "molecule(root=";
  readers[root].Append(molecule.root(), out, indent);
  *out += ")\n";
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    out->append(indent + 2, ' ');
    *out += md.nodes()[i].label;
    *out += ": {";
    const std::span<const AtomId> atoms = molecule.AtomsOf(i);
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j > 0) *out += ", ";
      readers[i].Append(atoms[j], out, indent);
    }
    *out += "}\n";
  }
  out->append(indent + 2, ' ');
  *out += "links: {";
  const std::span<const MoleculeLink> links = molecule.links();
  for (size_t j = 0; j < links.size(); ++j) {
    if (j > 0) *out += ", ";
    const MoleculeLink& link = links[j];
    *out += "<#";
    AppendUint(link.parent.value, out);
    *out += ", #";
    AppendUint(link.child.value, out);
    *out += '>';
  }
  *out += "}\n";
}

std::vector<AtomReader> NodeReaders(const Database& db,
                                    const MoleculeDescription& md,
                                    const std::optional<ReadView>& view) {
  std::vector<AtomReader> readers;
  readers.reserve(md.nodes().size());
  for (const MoleculeNode& node : md.nodes()) {
    readers.emplace_back(db, node.type_name, view);
  }
  return readers;
}

}  // namespace

AtomReader::AtomReader(const Database& db, const std::string& type_name,
                       const std::optional<ReadView>& view)
    : view_(view) {
  auto at = db.GetAtomType(type_name);
  if (at.ok()) store_ = &(*at)->occurrence();
}

void AtomReader::Append(AtomId id, std::string* out, size_t indent) const {
  if (store_ == nullptr) {
    *out += "<?>";
    return;
  }
  const Atom* atom =
      view_.has_value() ? store_->FindAt(id, *view_) : store_->Find(id);
  if (atom == nullptr) {
    *out += "<#";
    AppendUint(id.value, out);
    *out += "?>";
    return;
  }
  AppendAtomBody(*atom, indent, out);
}

std::string FormatAtom(const Database& db, const std::string& type_name,
                       AtomId id) {
  std::string out;
  AtomReader(db, type_name, std::nullopt).Append(id, &out);
  return out;
}

std::string FormatDatabaseSpec(const Database& db, size_t max_items) {
  std::string out;
  out += "-- formal specification of database " + db.name() + " --\n";
  for (const AtomType* at : db.atom_types()) {
    out += at->name() + " = <" + at->name() + ", " +
           at->description().ToString() + ", {";
    const auto& atoms = at->occurrence().atoms();
    for (size_t i = 0; i < atoms.size() && i < max_items; ++i) {
      if (i > 0) out += ", ";
      AppendAtomBody(atoms[i], 0, &out);
    }
    if (atoms.size() > max_items) out += ", ...";
    out += "}> in AT*\n";
  }
  for (const LinkType* lt : db.link_types()) {
    out += lt->name() + " = <" + lt->name() + ", {" + lt->first_atom_type() +
           ", " + lt->second_atom_type() + "}, {";
    const auto& links = lt->occurrence().links();
    for (size_t i = 0; i < links.size() && i < max_items; ++i) {
      if (i > 0) out += ", ";
      out += "<#" + std::to_string(links[i].first.value) + ", #" +
             std::to_string(links[i].second.value) + ">";
    }
    if (links.size() > max_items) out += ", ...";
    out += "}> in LT*\n";
  }
  out += db.name() + " = <{";
  bool first = true;
  for (const AtomType* at : db.atom_types()) {
    if (!first) out += ", ";
    out += at->name();
    first = false;
  }
  out += "}, {";
  first = true;
  for (const LinkType* lt : db.link_types()) {
    if (!first) out += ", ";
    out += lt->name();
    first = false;
  }
  out += "}> in DB*\n";
  return out;
}

std::string FormatMadDiagram(const Database& db) {
  std::string out = "-- MAD diagram (database schema) of " + db.name() + " --\n";
  out += "atom types:\n";
  for (const AtomType* at : db.atom_types()) {
    out += "  [" + at->name() + "] " + at->description().ToString() + "\n";
  }
  out += "link types (nondirectional):\n";
  for (const LinkType* lt : db.link_types()) {
    out += "  " + lt->first_atom_type() + " ---" + lt->name() + "--- " +
           lt->second_atom_type();
    if (lt->reflexive()) out += "  (reflexive)";
    if (lt->cardinality() != LinkCardinality::kManyToMany) {
      out += std::string("  [") + LinkCardinalityName(lt->cardinality()) + "]";
    }
    out += "\n";
  }
  return out;
}

std::string FormatErDiagram(const er::ErSchema& er) {
  std::string out = "-- ER diagram --\n";
  out += "entity types:\n";
  for (const er::EntityType& entity : er.entity_types()) {
    out += "  [" + entity.name + "] " + entity.attributes.ToString() + "\n";
  }
  out += "relationship types:\n";
  for (const er::RelationshipType& rel : er.relationship_types()) {
    out += "  " + rel.left + " <" + rel.name + " " +
           er::CardinalityName(rel.cardinality) + "> " + rel.right + "\n";
  }
  return out;
}

std::string FormatMolecule(const Database& db, const MoleculeDescription& md,
                           MoleculeView molecule) {
  std::string out;
  AppendMolecule(md, NodeReaders(db, md, std::nullopt),
                 *md.NodeIndex(md.root_label()), molecule, 0, &out);
  return out;
}

void AppendMoleculeType(const Database& db, const MoleculeType& mt,
                        size_t max_molecules,
                        const std::optional<ReadView>& view,
                        std::string* out) {
  const MoleculeDescription& md = mt.description();
  *out += "molecule type '";
  *out += mt.name();
  *out += "'\n  structure: ";
  *out += md.ToString();
  *out += "\n  molecule set (";
  AppendUint(mt.size(), out);
  *out += " molecules):\n";
  const std::vector<AtomReader> readers = NodeReaders(db, md, view);
  const size_t root = *md.NodeIndex(md.root_label());
  for (size_t i = 0; i < mt.size() && i < max_molecules; ++i) {
    AppendMolecule(md, readers, root, mt.molecules()[i], 4, out);
  }
  if (mt.size() > max_molecules) *out += "    ...\n";
}

std::string FormatMoleculeType(const Database& db, const MoleculeType& mt,
                               size_t max_molecules) {
  std::string out;
  AppendMoleculeType(db, mt, max_molecules, std::nullopt, &out);
  return out;
}

void AppendRecursiveMolecule(const AtomReader& reader,
                             const RecursiveDescription& rd,
                             const RecursiveMolecule& molecule,
                             std::string* out) {
  *out += "recursive molecule over ";
  *out += rd.atom_type;
  *out += "-[";
  *out += rd.link_type;
  if (rd.direction == LinkDirection::kBackward) *out += '~';
  *out += "*]\n";
  for (size_t level = 0; level < molecule.levels().size(); ++level) {
    *out += "  level ";
    AppendUint(level, out);
    *out += ": {";
    const std::vector<AtomId>& atoms = molecule.levels()[level];
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) *out += ", ";
      reader.Append(atoms[i], out);
    }
    *out += "}\n";
  }
}

std::string FormatRecursiveMolecule(const Database& db,
                                    const RecursiveDescription& rd,
                                    const RecursiveMolecule& molecule) {
  std::string out;
  AppendRecursiveMolecule(AtomReader(db, rd.atom_type, std::nullopt), rd,
                          molecule, &out);
  return out;
}

std::string FormatConceptComparison() {
  // Fig. 3 verbatim.
  return
      "relational concepts      | MAD concepts\n"
      "-------------------------+-------------------------\n"
      "attribute                | attribute\n"
      "attribute domain         | attribute domain\n"
      "relation schema          | atom-type description\n"
      "tuple set                | atom-type occurrence\n"
      "tuple                    | atom\n"
      "relation                 | atom type\n"
      "database                 | database\n"
      "-                        | link\n"
      "-                        | link-type description\n"
      "-                        | link-type occurrence\n"
      "-                        | link type\n"
      "referential integrity(?) | referential integrity(!)\n"
      "'relation domain'        | database domain\n";
}

std::string FormatDerivationStats(const DerivationStats& stats) {
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.2f", stats.wall_ms);
  const size_t derived = stats.roots - stats.molecules_rejected;
  std::string out =
      "derived " + std::to_string(derived) + " molecule" +
      (derived == 1 ? "" : "s") + ": " +
      std::to_string(stats.atoms_visited) + " atoms visited, " +
      std::to_string(stats.links_scanned) + " links scanned, " + wall +
      " ms";
  if (stats.molecules_rejected > 0) {
    out += ", " + std::to_string(stats.molecules_rejected) +
           " rejected by pushed filters";
  }
  return out;
}

std::string FormatDurabilityStats(const DurabilityStats& stats) {
  std::string out = "durable at gen " + std::to_string(stats.generation) +
                    " (sync " + (stats.sync ? "on" : "off") + "): " +
                    std::to_string(stats.records_appended) + " record" +
                    (stats.records_appended == 1 ? "" : "s") + " logged (" +
                    std::to_string(stats.bytes_appended) + " bytes), " +
                    std::to_string(stats.sync_count) + " sync" +
                    (stats.sync_count == 1 ? "" : "s") + ", " +
                    std::to_string(stats.checkpoint_count) + " checkpoint" +
                    (stats.checkpoint_count == 1 ? "" : "s");
  if (stats.replayed_records > 0 || stats.wal_torn_tail) {
    out += "; recovered " + std::to_string(stats.replayed_records) +
           " record" + (stats.replayed_records == 1 ? "" : "s");
    if (stats.wal_torn_tail) {
      out += ", torn tail of " + std::to_string(stats.wal_discarded_bytes) +
             " byte" + (stats.wal_discarded_bytes == 1 ? "" : "s") +
             " discarded";
    }
  }
  return out;
}

std::string FormatEpochStats(const EpochStats& stats,
                             const std::vector<TransactionInfo>& transactions) {
  std::string out =
      "epoch " + std::to_string(stats.current_epoch) + ", oldest pinned " +
      std::to_string(stats.oldest_pinned) + ", " +
      std::to_string(stats.pinned_readers) + " pinned reader" +
      (stats.pinned_readers == 1 ? "" : "s") + ", " +
      std::to_string(stats.archived_atoms) + " archived atom version" +
      (stats.archived_atoms == 1 ? "" : "s") + ", " +
      std::to_string(stats.archived_links) + " archived link version" +
      (stats.archived_links == 1 ? "" : "s") + ", " +
      std::to_string(stats.reclaimed_versions) + " reclaimed";
  if (transactions.empty()) {
    out += "\nno open transactions";
    return out;
  }
  out += "\n" + std::to_string(transactions.size()) + " open transaction" +
         (transactions.size() == 1 ? "" : "s") + ":";
  for (const TransactionInfo& txn : transactions) {
    out += "\n  #" + std::to_string(txn.id) + " @ epoch " +
           std::to_string(txn.snapshot_epoch) + ", " +
           std::to_string(txn.ops) + " op" + (txn.ops == 1 ? "" : "s");
  }
  return out;
}

namespace {

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms",
                  static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1f us",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

std::string SpanRows(const TraceSpan& span) {
  if (span.rows_in < 0 && span.rows_out < 0) return "";
  if (span.rows_in < 0) return "  rows out " + std::to_string(span.rows_out);
  if (span.rows_out < 0) return "  rows in " + std::to_string(span.rows_in);
  return "  " + std::to_string(span.rows_in) + " -> " +
         std::to_string(span.rows_out);
}

/// Consecutive same-named siblings beyond this many collapse into one
/// aggregate line, keeping traces with thousands of WAL appends readable.
constexpr size_t kMaxSiblingRun = 3;

void AppendSpanLine(const TraceSpan& span, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  *out += span.name;
  if (!span.note.empty()) *out += " [" + span.note + "]";
  *out += "  " + FormatNs(span.duration_ns) + SpanRows(span) + "\n";
}

void AppendSpanTree(const std::vector<TraceSpan>& spans,
                    const std::vector<std::vector<size_t>>& children,
                    size_t index, size_t depth, std::string* out) {
  AppendSpanLine(spans[index], depth, out);
  const std::vector<size_t>& kids = children[index];
  for (size_t i = 0; i < kids.size();) {
    // Measure the run of same-named siblings starting at i.
    size_t j = i;
    while (j < kids.size() &&
           spans[kids[j]].name == spans[kids[i]].name) {
      ++j;
    }
    size_t run = j - i;
    if (run <= kMaxSiblingRun) {
      for (size_t k = i; k < j; ++k) {
        AppendSpanTree(spans, children, kids[k], depth + 1, out);
      }
    } else {
      AppendSpanTree(spans, children, kids[i], depth + 1, out);
      uint64_t total_ns = 0;
      for (size_t k = i + 1; k < j; ++k) {
        total_ns += spans[kids[k]].duration_ns;
      }
      out->append(2 * (depth + 1), ' ');
      *out += "... " + std::to_string(run - 1) + " more " +
              spans[kids[i]].name + " span" + (run - 1 == 1 ? "" : "s") +
              ", total " + FormatNs(total_ns) + "\n";
    }
    i = j;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatQueryTrace(const QueryTrace& trace) {
  const std::vector<TraceSpan>& spans = trace.spans();
  std::string out =
      "trace: " + std::to_string(spans.size()) + " span" +
      (spans.size() == 1 ? "" : "s") + ", total " +
      FormatNs(trace.total_duration_ns()) + "\n";
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == TraceSpan::kNoParent) {
      roots.push_back(i);
    } else {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  for (size_t root : roots) {
    AppendSpanTree(spans, children, root, 1, &out);
  }
  return out;
}

std::string QueryTraceToJson(const QueryTrace& trace) {
  std::string out = "{\"total_ns\": " +
                    std::to_string(trace.total_duration_ns()) +
                    ", \"spans\": [";
  bool first = true;
  for (const TraceSpan& span : trace.spans()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) + ", \"name\": \"" +
           JsonEscape(span.name) + "\", \"note\": \"" + JsonEscape(span.note) +
           "\", \"start_ns\": " + std::to_string(span.start_ns) +
           ", \"duration_ns\": " + std::to_string(span.duration_ns) +
           ", \"rows_in\": " + std::to_string(span.rows_in) +
           ", \"rows_out\": " + std::to_string(span.rows_out) + "}";
  }
  out += "]}";
  return out;
}

std::string FormatMetricsSnapshot(const MetricsSnapshot& snapshot) {
  if (snapshot.samples.empty()) return "no metrics recorded\n";
  size_t width = 0;
  for (const MetricSample& s : snapshot.samples) {
    width = std::max(width, s.name.size());
  }
  std::string out;
  for (const MetricSample& s : snapshot.samples) {
    out += s.name;
    out.append(width - s.name.size() + 2, ' ');
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
      case MetricSample::Kind::kGauge:
        out += std::to_string(s.value);
        break;
      case MetricSample::Kind::kHistogram:
        out += "count " + std::to_string(s.count) + ", mean " +
               FormatNs(s.count == 0 ? 0 : s.sum_us * 1000 / s.count) +
               ", p50 <= " + FormatNs(s.p50_us * 1000) + ", p99 <= " +
               FormatNs(s.p99_us * 1000) + ", max " +
               FormatNs(s.max_us * 1000);
        break;
    }
    out += "\n";
  }
  return out;
}

std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  std::string counters, gauges, histograms;
  for (const MetricSample& s : snapshot.samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += "\"" + JsonEscape(s.name) +
                    "\": " + std::to_string(s.value);
        break;
      case MetricSample::Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += "\"" + JsonEscape(s.name) + "\": " + std::to_string(s.value);
        break;
      case MetricSample::Kind::kHistogram:
        if (!histograms.empty()) histograms += ", ";
        histograms += "\"" + JsonEscape(s.name) + "\": {\"count\": " +
                      std::to_string(s.count) + ", \"sum_us\": " +
                      std::to_string(s.sum_us) + ", \"max_us\": " +
                      std::to_string(s.max_us) + ", \"p50_us\": " +
                      std::to_string(s.p50_us) + ", \"p99_us\": " +
                      std::to_string(s.p99_us) + "}";
        break;
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

}  // namespace text
}  // namespace mad
