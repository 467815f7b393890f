#ifndef MAD_UTIL_DIGRAPH_H_
#define MAD_UTIL_DIGRAPH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"

namespace mad {

/// A small labelled directed multigraph over string-named nodes.
///
/// This is the structural workhorse behind the paper's `md_graph` predicate
/// (Def. 5): a molecule-type description must form a directed, acyclic,
/// coherent graph with exactly one root. Nodes are stored in insertion
/// order; edges may carry a label (the directed link-type name).
class Digraph {
 public:
  struct Edge {
    std::string label;
    std::string from;
    std::string to;
  };

  /// Adds a node; returns false if it already exists.
  bool AddNode(const std::string& name);
  /// Adds a labelled edge; both endpoints must already be nodes.
  Status AddEdge(const std::string& label, const std::string& from,
                 const std::string& to);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }
  const std::vector<std::string>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Outgoing edges of `node`, in insertion order.
  std::vector<const Edge*> OutEdges(const std::string& node) const;
  /// Incoming edges of `node`, in insertion order.
  std::vector<const Edge*> InEdges(const std::string& node) const;

  /// True iff the graph has no directed cycle.
  bool IsAcyclic() const;
  /// True iff the graph is weakly connected (the paper's "coherent").
  /// The empty graph is not coherent; a single node is.
  bool IsCoherent() const;
  /// Nodes with no incoming edge, in insertion order.
  std::vector<std::string> Roots() const;

  /// Topological order of the nodes; fails on cyclic graphs. Ties are broken
  /// by insertion order, making the result deterministic.
  Result<std::vector<std::string>> TopologicalOrder() const;

  /// Checks the full `md_graph` property set: nonempty, directed-acyclic,
  /// coherent, exactly one root. Returns the root name on success.
  Result<std::string> CheckRootedDag() const;

  /// Nodes reachable from `start` (including `start`) following edge
  /// direction.
  std::set<std::string> ReachableFrom(const std::string& start) const;

 private:
  std::vector<std::string> nodes_;
  std::map<std::string, size_t> node_index_;
  std::vector<Edge> edges_;
  // Node index -> indexes into edges_.
  std::map<size_t, std::vector<size_t>> out_;
  std::map<size_t, std::vector<size_t>> in_;
};

}  // namespace mad

#endif  // MAD_UTIL_DIGRAPH_H_
