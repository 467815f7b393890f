// Reproduces the paper's running example end to end: the Fig. 1/Fig. 4
// geographic database, the Fig. 2 molecule types with their shared
// subobjects, and the two Ch. 4 MQL statements with their algebra
// translations.
//
// Run: ./build/examples/example_geo_navigation

#include <cstdlib>
#include <iostream>

#include "er/er_model.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "mql/session.h"
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

  // ---- Figure 1: the schema, first as an ER diagram, then as the MAD
  // diagram it maps onto one-to-one. ------------------------------------
  er::ErSchema er_schema = er::Figure1ErSchema();
  std::cout << text::FormatErDiagram(er_schema) << "\n";

  Database db("GEO_DB");
  workload::GeoIds ids = Check(workload::BuildFigure4GeoDatabase(db));
  std::cout << text::FormatMadDiagram(db) << "\n";

  // ---- Figure 4: the formal specification of GEO_DB. -------------------
  std::cout << text::FormatDatabaseSpec(db) << "\n";

  // ---- Figure 2, lower: molecule type mt_state via the algebra. --------
  MoleculeDescription mt_state_md = Check(MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}}));
  MoleculeType mt_state = Check(DefineMoleculeType(db, "mt_state", mt_state_md));
  std::cout << text::FormatMoleculeType(db, mt_state, 2) << "\n";

  // Shared subobjects: SP's and MG's molecules meet in point 'pn'.
  MoleculeView sp, mg;
  for (MoleculeView m : mt_state.molecules()) {
    if (m.root() == ids.states["SP"]) sp = m;
    if (m.root() == ids.states["MG"]) mg = m;
  }
  size_t point_idx = Check(mt_state.description().NodeIndex("point"));
  std::cout << "SP and MG molecules share point 'pn': "
            << (sp.ContainsAtom(point_idx, ids.points["pn"]) &&
                        mg.ContainsAtom(point_idx, ids.points["pn"])
                    ? "yes"
                    : "no")
            << "\n\n";

  // ---- Chapter 4, example 1: MQL vs algebra. ----------------------------
  mql::Session session(&db);
  std::cout << "MQL> SELECT ALL FROM mt_state(state-area-edge-point);\n";
  auto result1 =
      Check(session.Execute("SELECT ALL FROM mt_state(state-area-edge-point);"));
  std::cout << "  -> " << result1.molecules->size()
            << " molecules (algebra: a[mt_state, G](C))\n\n";

  // ---- Chapter 4, example 2: the point neighborhood of 'pn'. -----------
  std::cout << "MQL> SELECT ALL FROM point-edge-(area-state,net-river)\n"
               "     WHERE point.name = 'pn';\n";
  auto result2 = Check(session.Execute(
      "SELECT ALL FROM point-edge-(area-state,net-river) "
      "WHERE point.name = 'pn';"));
  std::cout << "  -> algebra: Sigma[restr(point.name='pn')]"
               "(a[point-neighborhood, G'](C'))\n";
  for (MoleculeView m : result2.molecules->molecules()) {
    std::cout << text::FormatMolecule(db, result2.molecules->description(), m);
  }
  std::cout << "\n";

  // ---- Molecule algebra on top: which big states touch point 'pn'? -----
  auto touching = Check(RestrictMolecules(
      db, mt_state, expr::Eq(expr::Attr("point", "name"), expr::Lit("pn")),
      "touching_pn"));
  auto big = Check(RestrictMolecules(
      db, mt_state,
      expr::Ge(expr::Attr("state", "hectare"), expr::Lit(int64_t{1000})),
      "big"));
  auto both = Check(IntersectMolecules(big, touching, "big_touching"));
  std::cout << "Psi(big, touching_pn) = " << both.size()
            << " molecules (SP, MS)\n";
  return 0;
}
