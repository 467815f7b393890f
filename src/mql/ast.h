#ifndef MAD_MQL_AST_H_
#define MAD_MQL_AST_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "catalog/link_type.h"
#include "core/data_type.h"
#include "core/value.h"
#include "expr/expr.h"
#include "mql/diag.h"

namespace mad {
namespace mql {

/// Source spans of expression nodes, keyed by node identity. expr::Expr is
/// shared with the algebra layer, so spans ride alongside the tree instead
/// of inside it; ExprPtr sharing keeps the keys alive as long as the
/// statement. Nodes without an entry render span-less diagnostics.
using ExprSpanMap = std::map<const expr::Expr*, SourceSpan>;

/// A molecule structure expression from a FROM clause, e.g.
/// `point-edge-(area-state,net-river)` or `part-[composition*]`.
///
/// Connectors: `-` uses the unique link type between the adjacent atom
/// types; `-[lname]-` names it explicitly. Inside the brackets a trailing
/// `~` flips the traversal to second-role -> first-role (needed for
/// reflexive link types) and a trailing `*` makes the step recursive
/// (transitive closure; the branch then has no target node).
struct StructureNode {
  struct Branch {
    std::optional<std::string> link;  ///< explicit link-type name
    bool reverse = false;             ///< '~' flag
    bool recursive = false;           ///< '*' flag (child is null)
    int recursive_depth = -1;         ///< '*N' bounds the depth; -1 unbounded
    std::unique_ptr<StructureNode> child;
    SourceSpan link_span;  ///< the `[lname...]` token, or the connector '-'
  };

  std::string atom;
  std::vector<Branch> branches;
  SourceSpan span;  ///< the atom-type identifier token
};

/// FROM clause: an optional molecule-type name plus either an inline
/// structure (`mt_state(state-area-edge-point)` / bare structure) or — when
/// the structure degenerates to a single identifier — a reference the
/// session resolves against registered molecule types first and atom types
/// second.
struct FromClause {
  std::string molecule_name;  ///< empty for anonymous queries
  std::unique_ptr<StructureNode> structure;
  SourceSpan name_span;  ///< the registration name, when present
};

/// One SELECT list item: a node label (`state`), a narrowed attribute
/// (`state.name`), or an explicit whole-node `state.*`.
struct ProjectionItem {
  std::string label;
  std::optional<std::string> attribute;  ///< nullopt means the whole node
  SourceSpan label_span;
  SourceSpan attr_span;
};

/// SELECT [ALL | items] FROM from [WHERE predicate].
struct SelectStatement {
  bool select_all = true;
  std::vector<ProjectionItem> items;
  FromClause from;
  expr::ExprPtr where;  ///< null when absent
  ExprSpanMap expr_spans;
};

/// CREATE ATOM TYPE name (attr TYPE, ...).
struct CreateAtomTypeStatement {
  std::string name;
  std::vector<std::pair<std::string, DataType>> attributes;
  SourceSpan name_span;
  std::vector<SourceSpan> attribute_spans;  ///< parallel to `attributes`
};

/// CREATE LINK TYPE name (first, second [, '1:1'|'1:n'|'n:1'|'n:m']).
struct CreateLinkTypeStatement {
  std::string name;
  std::string first;
  std::string second;
  LinkCardinality cardinality = LinkCardinality::kManyToMany;
  SourceSpan name_span;
  SourceSpan first_span;
  SourceSpan second_span;
};

/// INSERT INTO type VALUES (v, ...)[, (v, ...)]*.
struct InsertAtomStatement {
  std::string atom_type;
  std::vector<std::vector<Value>> rows;
  SourceSpan type_span;
  std::vector<SourceSpan> row_spans;  ///< each row's '(' token
  std::vector<std::vector<SourceSpan>> value_spans;  ///< parallel to `rows`
};

/// INSERT LINK lname FROM (pred) TO (pred): links every first-role atom
/// matching the first predicate to every second-role atom matching the
/// second.
struct InsertLinkStatement {
  std::string link_type;
  expr::ExprPtr first_predicate;
  expr::ExprPtr second_predicate;
  SourceSpan link_span;
  ExprSpanMap expr_spans;
};

/// DELETE FROM type WHERE pred (links cascade, Def. 2's integrity).
struct DeleteStatement {
  std::string atom_type;
  expr::ExprPtr predicate;  ///< null deletes everything
  SourceSpan type_span;
  ExprSpanMap expr_spans;
};

/// UPDATE type SET attr = expr, ... [WHERE pred]. Assignment expressions
/// are evaluated against the pre-update atom.
struct UpdateStatement {
  std::string atom_type;
  std::vector<std::pair<std::string, expr::ExprPtr>> assignments;
  expr::ExprPtr predicate;  ///< null updates everything
  SourceSpan type_span;
  std::vector<SourceSpan> assignment_spans;  ///< target attrs, parallel
  ExprSpanMap expr_spans;
};

/// EXPLAIN <select>: prints the molecule-algebra translation instead of
/// executing it — the Ch. 4 correspondence made inspectable. With
/// `analyze` (EXPLAIN ANALYZE <select>) the query IS executed under a
/// QueryTrace and the result carries the plan plus the recorded operator
/// span tree with wall times and cardinalities.
struct ExplainStatement {
  SelectStatement select;
  bool analyze = false;
};

/// SHOW METRICS: reports a snapshot of the process-wide metrics registry
/// (util/metrics.h) — counters, gauges, and latency histograms.
struct ShowMetricsStatement {};

/// SET option [=] value: a session tuning command, e.g. `SET TRACE ON`
/// or `SET SYNC = 0`. The option name is a case-insensitive identifier
/// interpreted by the session; values are non-negative integers, with
/// ON/OFF accepted as spellings of 1/0.
struct SetOptionStatement {
  std::string option;
  int64_t value = 0;
  SourceSpan option_span;
  SourceSpan value_span;
};

/// OPEN '<directory>': attaches the session to a durable database
/// directory, recovering its state (storage/durable_database.h). Subsequent
/// mutations are write-ahead logged there.
struct OpenStatement {
  std::string directory;
};

/// CHECKPOINT: forces a new checkpoint generation of the open durable
/// database.
struct CheckpointStatement {};

/// BEGIN [TRANSACTION]: opens a snapshot-isolation transaction pinned at
/// the current epoch; subsequent mutations stay invisible to other
/// sessions until COMMIT (DESIGN.md §11).
struct BeginStatement {};

/// COMMIT: publishes the open transaction's mutations atomically at a new
/// epoch.
struct CommitStatement {};

/// ROLLBACK: discards the open transaction's mutations.
struct RollbackStatement {};

/// SHOW TRANSACTIONS: reports the database's epoch/version statistics and
/// the transactions currently open across sessions.
struct ShowTransactionsStatement {};

struct StatementBox;

/// CHECK <statement>: runs the semantic analyzer over the inner statement
/// and reports its diagnostics without executing anything — the MQL spelling
/// of `mql_lint` for one statement. The box indirection lets the variant
/// hold its own alias.
struct CheckStatement {
  std::shared_ptr<StatementBox> inner;
};

using Statement =
    std::variant<SelectStatement, CreateAtomTypeStatement,
                 CreateLinkTypeStatement, InsertAtomStatement,
                 InsertLinkStatement, DeleteStatement, UpdateStatement,
                 ExplainStatement, ShowMetricsStatement, SetOptionStatement,
                 OpenStatement, CheckpointStatement, CheckStatement,
                 BeginStatement, CommitStatement, RollbackStatement,
                 ShowTransactionsStatement>;

struct StatementBox {
  Statement value;
};

}  // namespace mql
}  // namespace mad

#endif  // MAD_MQL_AST_H_
