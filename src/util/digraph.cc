#include "util/digraph.h"

#include <algorithm>
#include <deque>

namespace mad {

bool Digraph::AddNode(const std::string& name) {
  if (node_index_.count(name) > 0) return false;
  node_index_[name] = nodes_.size();
  nodes_.push_back(name);
  return true;
}

Status Digraph::AddEdge(const std::string& label, const std::string& from,
                        const std::string& to) {
  auto from_it = node_index_.find(from);
  auto to_it = node_index_.find(to);
  if (from_it == node_index_.end()) {
    return Status::NotFound("digraph: unknown edge source node '" + from + "'");
  }
  if (to_it == node_index_.end()) {
    return Status::NotFound("digraph: unknown edge target node '" + to + "'");
  }
  size_t edge_id = edges_.size();
  edges_.push_back(Edge{label, from, to});
  out_[from_it->second].push_back(edge_id);
  in_[to_it->second].push_back(edge_id);
  return Status::OK();
}

std::vector<const Digraph::Edge*> Digraph::OutEdges(
    const std::string& node) const {
  std::vector<const Edge*> result;
  auto it = node_index_.find(node);
  if (it == node_index_.end()) return result;
  auto out_it = out_.find(it->second);
  if (out_it == out_.end()) return result;
  result.reserve(out_it->second.size());
  for (size_t edge_id : out_it->second) result.push_back(&edges_[edge_id]);
  return result;
}

std::vector<const Digraph::Edge*> Digraph::InEdges(
    const std::string& node) const {
  std::vector<const Edge*> result;
  auto it = node_index_.find(node);
  if (it == node_index_.end()) return result;
  auto in_it = in_.find(it->second);
  if (in_it == in_.end()) return result;
  result.reserve(in_it->second.size());
  for (size_t edge_id : in_it->second) result.push_back(&edges_[edge_id]);
  return result;
}

bool Digraph::IsAcyclic() const { return TopologicalOrder().ok(); }

bool Digraph::IsCoherent() const {
  if (nodes_.empty()) return false;
  // Breadth-first search over the underlying undirected graph.
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<size_t> queue = {0};
  seen[0] = true;
  size_t visited = 1;
  while (!queue.empty()) {
    size_t node = queue.front();
    queue.pop_front();
    auto visit = [&](size_t next) {
      if (!seen[next]) {
        seen[next] = true;
        ++visited;
        queue.push_back(next);
      }
    };
    auto out_it = out_.find(node);
    if (out_it != out_.end()) {
      for (size_t edge_id : out_it->second) {
        visit(node_index_.at(edges_[edge_id].to));
      }
    }
    auto in_it = in_.find(node);
    if (in_it != in_.end()) {
      for (size_t edge_id : in_it->second) {
        visit(node_index_.at(edges_[edge_id].from));
      }
    }
  }
  return visited == nodes_.size();
}

std::vector<std::string> Digraph::Roots() const {
  std::vector<std::string> roots;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    auto in_it = in_.find(i);
    if (in_it == in_.end() || in_it->second.empty()) roots.push_back(nodes_[i]);
  }
  return roots;
}

Result<std::vector<std::string>> Digraph::TopologicalOrder() const {
  std::vector<size_t> in_degree(nodes_.size(), 0);
  for (const Edge& edge : edges_) ++in_degree[node_index_.at(edge.to)];

  // Kahn's algorithm; the ready list is kept sorted by insertion index so
  // the order is deterministic.
  std::deque<size_t> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree[i] == 0) ready.push_back(i);
  }
  std::vector<std::string> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    size_t node = ready.front();
    ready.pop_front();
    order.push_back(nodes_[node]);
    auto out_it = out_.find(node);
    if (out_it == out_.end()) continue;
    for (size_t edge_id : out_it->second) {
      size_t next = node_index_.at(edges_[edge_id].to);
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::ConstraintViolation("digraph: graph contains a cycle");
  }
  return order;
}

Result<std::string> Digraph::CheckRootedDag() const {
  if (nodes_.empty()) {
    return Status::InvalidArgument("digraph: empty graph is not a rooted DAG");
  }
  if (!IsAcyclic()) {
    return Status::ConstraintViolation("digraph: graph contains a cycle");
  }
  if (!IsCoherent()) {
    return Status::ConstraintViolation("digraph: graph is not coherent");
  }
  std::vector<std::string> roots = Roots();
  if (roots.size() != 1) {
    return Status::ConstraintViolation(
        "digraph: expected exactly one root, found " +
        std::to_string(roots.size()));
  }
  return roots[0];
}

std::set<std::string> Digraph::ReachableFrom(const std::string& start) const {
  std::set<std::string> seen;
  auto it = node_index_.find(start);
  if (it == node_index_.end()) return seen;
  std::deque<size_t> queue = {it->second};
  seen.insert(start);
  while (!queue.empty()) {
    size_t node = queue.front();
    queue.pop_front();
    auto out_it = out_.find(node);
    if (out_it == out_.end()) continue;
    for (size_t edge_id : out_it->second) {
      const std::string& to = edges_[edge_id].to;
      if (seen.insert(to).second) queue.push_back(node_index_.at(to));
    }
  }
  return seen;
}

}  // namespace mad
