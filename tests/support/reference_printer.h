#ifndef MAD_TESTS_SUPPORT_REFERENCE_PRINTER_H_
#define MAD_TESTS_SUPPORT_REFERENCE_PRINTER_H_

// Test-only oracle: the result renderer as it was before rendering became
// one pass — a string per value, atom and molecule, GetAtomType and a head
// Find per atom, doubles through snprintf("%g"), and a char-by-char pass
// that indents each molecule of a listing. The single-pass renderer
// (server::RenderQueryResult, text::AppendMoleculeType) is held to its
// bytes whenever the head is the result's view.

#include <cstddef>
#include <string>

#include "core/value.h"
#include "mql/session.h"
#include "storage/database.h"

namespace mad {
namespace reference {

/// Value::ToString's display form, doubles via snprintf("%g").
std::string ValueText(const Value& value);

/// RenderQueryResult's body, every atom read at the head.
std::string RenderQueryResult(const Database& db,
                              const mql::QueryResult& result,
                              size_t max_items = 32);

}  // namespace reference
}  // namespace mad

#endif  // MAD_TESTS_SUPPORT_REFERENCE_PRINTER_H_
