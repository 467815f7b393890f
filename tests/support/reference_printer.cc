#include "support/reference_printer.h"

#include <cstdio>

#include "mql/diag.h"
#include "text/printer.h"

namespace mad {
namespace reference {

namespace {

std::string AtomBody(const Atom& atom) {
  std::string out = "<";
  for (size_t i = 0; i < atom.values.size(); ++i) {
    if (i > 0) out += ", ";
    out += ValueText(atom.values[i]);
  }
  out += ">";
  return out;
}

std::string FormatAtom(const Database& db, const std::string& type_name,
                       AtomId id) {
  auto at = db.GetAtomType(type_name);
  if (!at.ok()) return "<?>";
  const Atom* atom = (*at)->occurrence().Find(id);
  if (atom == nullptr) return "<#" + std::to_string(id.value) + "?>";
  return AtomBody(*atom);
}

std::string FormatMolecule(const Database& db, const MoleculeDescription& md,
                           MoleculeView molecule) {
  std::string out = "molecule(root=" + FormatAtom(
      db, md.root_node().type_name, molecule.root()) + ")\n";
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    const MoleculeNode& node = md.nodes()[i];
    out += "  " + node.label + ": {";
    const auto& atoms = molecule.AtomsOf(i);
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j > 0) out += ", ";
      out += FormatAtom(db, node.type_name, atoms[j]);
    }
    out += "}\n";
  }
  out += "  links: {";
  for (size_t j = 0; j < molecule.links().size(); ++j) {
    if (j > 0) out += ", ";
    const MoleculeLink& link = molecule.links()[j];
    out += "<#" + std::to_string(link.parent.value) + ", #" +
           std::to_string(link.child.value) + ">";
  }
  out += "}\n";
  return out;
}

std::string FormatMoleculeType(const Database& db, const MoleculeType& mt,
                               size_t max_molecules) {
  std::string out = "molecule type '" + mt.name() + "'\n";
  out += "  structure: " + mt.description().ToString() + "\n";
  out += "  molecule set (" + std::to_string(mt.size()) + " molecules):\n";
  for (size_t i = 0; i < mt.molecules().size() && i < max_molecules; ++i) {
    std::string body = FormatMolecule(db, mt.description(), mt.molecules()[i]);
    out += "    ";
    for (char c : body) {
      out += c;
      if (c == '\n') out += "    ";
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
  }
  if (mt.size() > max_molecules) out += "    ...\n";
  return out;
}

std::string FormatRecursiveMolecule(const Database& db,
                                    const RecursiveDescription& rd,
                                    const RecursiveMolecule& molecule) {
  std::string out = "recursive molecule over " + rd.atom_type + "-[" +
                    rd.link_type +
                    (rd.direction == LinkDirection::kBackward ? "~" : "") +
                    "*]\n";
  for (size_t level = 0; level < molecule.levels().size(); ++level) {
    out += "  level " + std::to_string(level) + ": {";
    const auto& atoms = molecule.levels()[level];
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatAtom(db, rd.atom_type, atoms[i]);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace

std::string ValueText(const Value& value) {
  switch (value.type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return std::to_string(value.AsInt64());
    case DataType::kDouble: {
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%g", value.AsDouble());
      return std::string(buf, static_cast<size_t>(n));
    }
    case DataType::kString:
      return "'" + value.AsString() + "'";
    case DataType::kBool:
      return value.AsBool() ? "TRUE" : "FALSE";
  }
  return "NULL";
}

std::string RenderQueryResult(const Database& db,
                              const mql::QueryResult& result,
                              size_t max_items) {
  using Kind = mql::QueryResult::Kind;
  std::string body;
  for (const mql::Diagnostic& diag : result.diagnostics) {
    body += mql::FormatDiagnosticLine(diag) + "\n";
  }
  switch (result.kind) {
    case Kind::kMolecules:
      body += FormatMoleculeType(db, *result.molecules, max_items);
      break;
    case Kind::kRecursive: {
      body += std::to_string(result.recursive.size()) +
              " recursive molecule(s)\n";
      size_t shown = 0;
      for (size_t i = 0; i < result.recursive.size(); ++i) {
        if (++shown > max_items) {
          body += "...\n";
          break;
        }
        body += FormatRecursiveMolecule(db, result.recursive_description,
                                        result.recursive[i]);
        if (i < result.recursive_components.size()) {
          body += "  " +
                  std::to_string(result.recursive_components[i].size()) +
                  " component molecule(s)\n";
        }
      }
      break;
    }
    case Kind::kCommand:
      body += result.message + "\n";
      break;
  }
  if (result.derivation.has_value()) {
    body += text::FormatDerivationStats(*result.derivation) + "\n";
  }
  if (result.durability.has_value()) {
    body += text::FormatDurabilityStats(*result.durability) + "\n";
  }
  if (result.trace != nullptr && result.kind != Kind::kCommand) {
    body += text::FormatQueryTrace(*result.trace);
  }
  return body;
}

}  // namespace reference
}  // namespace mad
