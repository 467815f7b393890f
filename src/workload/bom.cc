#include "workload/bom.h"

#include <random>
#include <vector>

#include "util/string_util.h"

namespace mad {
namespace workload {

namespace {

Status DefineBomSchema(Database& db) {
  Schema part;
  MAD_RETURN_IF_ERROR(part.AddAttribute("name", DataType::kString));
  MAD_RETURN_IF_ERROR(part.AddAttribute("cost", DataType::kInt64));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("part", std::move(part)));
  return db.DefineLinkType("composition", "part", "part");
}

}  // namespace

Result<std::map<std::string, AtomId>> BuildCarBom(Database& db) {
  MAD_RETURN_IF_ERROR(DefineBomSchema(db));
  std::map<std::string, AtomId> ids;

  struct PartRow {
    const char* name;
    int64_t cost;
  };
  const PartRow kParts[] = {{"car", 20000}, {"engine", 5000},
                            {"chassis", 3000}, {"piston", 120},
                            {"bolt", 1}};
  for (const PartRow& row : kParts) {
    MAD_ASSIGN_OR_RETURN(
        AtomId id, db.InsertAtom("part", {Value(row.name), Value(row.cost)}));
    ids[row.name] = id;
  }

  struct Comp {
    const char* super;
    const char* sub;
  };
  const Comp kLinks[] = {{"car", "engine"},
                         {"car", "chassis"},
                         {"engine", "piston"},
                         {"piston", "bolt"},
                         {"chassis", "bolt"}};
  for (const Comp& comp : kLinks) {
    MAD_RETURN_IF_ERROR(
        db.InsertLink("composition", ids[comp.super], ids[comp.sub]));
  }
  return ids;
}

Result<BomStats> GenerateBom(Database& db, const BomScale& scale) {
  MAD_RETURN_IF_ERROR(DefineBomSchema(db));
  std::mt19937_64 rng(scale.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  BomStats stats;
  std::vector<AtomId> current;
  for (int r = 0; r < scale.roots; ++r) {
    MAD_ASSIGN_OR_RETURN(
        AtomId root,
        db.InsertAtom("part", {Value("root" + std::to_string(r + 1)),
                               Value(static_cast<int64_t>(10000 + r))}));
    stats.roots.push_back(root);
    current.push_back(root);
    ++stats.parts;
  }

  for (int d = 1; d <= scale.depth; ++d) {
    std::vector<AtomId> next;
    for (size_t i = 0; i < current.size(); ++i) {
      for (int c = 0; c < scale.fanout; ++c) {
        AtomId child;
        if (!next.empty() && unit(rng) < scale.share_fraction) {
          child = next[rng() % next.size()];  // shared sub-part
        } else {
          std::string name = StrCat({"p", std::to_string(d), "_",
                                     std::to_string(next.size() + 1)});
          MAD_ASSIGN_OR_RETURN(
              child,
              db.InsertAtom("part",
                            {Value(name),
                             Value(static_cast<int64_t>(rng() % 1000 + 1))}));
          next.push_back(child);
          ++stats.parts;
        }
        Status s = db.InsertLink("composition", current[i], child);
        if (s.ok()) {
          ++stats.links;
        } else if (s.code() != StatusCode::kAlreadyExists) {
          return s;
        }
      }
    }
    if (next.empty()) break;
    current = std::move(next);
  }
  return stats;
}

}  // namespace workload
}  // namespace mad
