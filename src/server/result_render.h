#ifndef MAD_SERVER_RESULT_RENDER_H_
#define MAD_SERVER_RESULT_RENDER_H_

#include <cstddef>
#include <string>

#include "mql/session.h"
#include "storage/database.h"

namespace mad {
namespace server {

/// Renders one QueryResult into the text body of a RESULT message, using
/// the same deterministic printers as the local shell. The server and the
/// differential tests (remote run vs. local Session run of the same
/// statements) share this one function, so "bit-identical results" is a
/// byte comparison of its output.
///
/// Molecule bodies are rendered by reading atom values back from the
/// stores, at the view the SELECT read at (QueryResult::view), so a row
/// shows the values its WHERE matched, not later or uncommitted writes of
/// other sessions. The contract:
/// - `db` is the session's *current* database (Session::database() —
///   after OPEN it differs from the construction-time one);
/// - render before the session runs its next statement: the result's own
///   pin keeps the versions of its view, but a view inside a transaction
///   or under SET PIN SNAPSHOT is the session's, and changes with it;
/// - when writers may run concurrently, hold at least a shared lock on
///   db.mutex(): it keeps DDL from dropping a store mid-render and writers
///   from growing the head vectors being read.
std::string RenderQueryResult(const Database& db,
                              const mql::QueryResult& result,
                              size_t max_items = 32);

}  // namespace server
}  // namespace mad

#endif  // MAD_SERVER_RESULT_RENDER_H_
