#include "server/result_render.h"

#include "mql/diag.h"
#include "text/printer.h"

namespace mad {
namespace server {

std::string RenderQueryResult(const Database& db,
                              const mql::QueryResult& result,
                              size_t max_items) {
  using Kind = mql::QueryResult::Kind;
  std::string body;
  // Analyzer warnings (and, for CHECK, the full report) lead, one line per
  // diagnostic — the wire protocol does not carry the source text a caret
  // rendering would need.
  for (const mql::Diagnostic& diag : result.diagnostics) {
    body += mql::FormatDiagnosticLine(diag) + "\n";
  }
  switch (result.kind) {
    case Kind::kMolecules:
      text::AppendMoleculeType(db, *result.molecules, max_items, result.view,
                               &body);
      break;
    case Kind::kRecursive: {
      body += std::to_string(result.recursive.size()) +
              " recursive molecule(s)\n";
      const text::AtomReader reader(
          db, result.recursive_description.atom_type, result.view);
      for (size_t i = 0; i < result.recursive.size(); ++i) {
        if (i == max_items) {
          body += "...\n";
          break;
        }
        text::AppendRecursiveMolecule(reader, result.recursive_description,
                                      result.recursive[i], &body);
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
  // EXPLAIN ANALYZE embeds its profile in the message; a SET TRACE ON trace
  // still needs printing for molecule/recursive results.
  if (result.trace != nullptr && result.kind != Kind::kCommand) {
    body += text::FormatQueryTrace(*result.trace);
  }
  return body;
}

}  // namespace server
}  // namespace mad
