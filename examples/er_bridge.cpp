// The MAD model as an executable "ER algebra" (Ch. 2 and Ch. 5): maps the
// Fig. 1 ER schema one-to-one onto MAD, maps it classically onto the
// relational model, and contrasts how the two sides answer the same n:m
// traversal.
//
// Run: ./build/examples/example_er_bridge

#include <cstdlib>
#include <iostream>

#include "er/er_model.h"
#include "molecule/derivation.h"
#include "relational/bridge.h"
#include "relational/rel_algebra.h"
#include "text/printer.h"
#include "workload/geo.h"

namespace {

void Check(const mad::Status& status) {
  if (status.ok()) return;
  std::cerr << "error: " << status << "\n";
  std::exit(1);
}

template <typename T>
T Check(mad::Result<T> result) {
  Check(result.status());
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace mad;  // NOLINT: example brevity

  er::ErSchema er_schema = er::Figure1ErSchema();
  std::cout << text::FormatErDiagram(er_schema) << "\n";

  // ---- Schema-mapping comparison. ----------------------------------------
  er::MappingReport report = Check(er::CompareMappings(er_schema));
  std::cout << "ER -> MAD:        " << report.mad_atom_types
            << " atom types, " << report.mad_link_types
            << " link types (one-to-one, no auxiliary structures)\n";
  std::cout << "ER -> relational: " << report.rel_relations << " relations ("
            << report.rel_auxiliary_relations
            << " auxiliary), plus " << report.rel_foreign_key_columns
            << " foreign-key columns\n\n";

  // ---- The same n:m traversal on both sides. -----------------------------
  Database db("GEO_DB");
  Check(workload::BuildFigure4GeoDatabase(db).status());

  // MAD: one molecule structure, links traversed directly.
  MoleculeDescription md = Check(MoleculeDescription::CreateFromTypes(
      db, {"area", "edge"}, {{"area-edge", "area", "edge", false}}));
  MoleculeType areas = Check(DefineMoleculeType(db, "area_borders", md));
  size_t mad_pairs = 0;
  for (MoleculeView m : areas.molecules()) mad_pairs += m.links().size();
  std::cout << "MAD: area-edge molecules = " << areas.size()
            << ", border links touched = " << mad_pairs << "\n";

  // Relational: transform, then join through the auxiliary relation.
  rel::TransformStats stats;
  rel::RelationalDatabase rdb = Check(rel::TransformToRelational(db, &stats));
  const rel::Relation* area = Check(rdb.Get("area"));
  const rel::Relation* aux = Check(rdb.Get("area-edge"));
  rel::Relation edge = Check(rel::Rename(
      *Check(rdb.Get("edge")), {{"_id", "_eid"}, {"name", "ename"}}));

  rel::Relation j1 = Check(rel::EquiJoin(*area, "_id", *aux, "_from"));
  rel::Relation j2 = Check(rel::EquiJoin(j1, "_to", edge, "_eid"));
  std::cout << "relational: area |x| area-edge |x| edge = " << j2.size()
            << " rows through " << stats.auxiliary_relations
            << " auxiliary relations\n";

  std::cout << "\n" << text::FormatConceptComparison();
  return 0;
}
