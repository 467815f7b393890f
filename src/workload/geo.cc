#include "workload/geo.h"

#include <random>
#include <vector>

#include "util/string_util.h"

namespace mad {
namespace workload {

namespace {

Schema NameSchema() {
  Schema s;
  Status st = s.AddAttribute("name", DataType::kString);
  (void)st;
  return s;
}

Status DefineFigure1Schema(Database& db) {
  Schema state;
  MAD_RETURN_IF_ERROR(state.AddAttribute("name", DataType::kString));
  MAD_RETURN_IF_ERROR(state.AddAttribute("hectare", DataType::kInt64));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("state", std::move(state)));

  MAD_RETURN_IF_ERROR(db.DefineAtomType("city", NameSchema()));

  Schema river;
  MAD_RETURN_IF_ERROR(river.AddAttribute("name", DataType::kString));
  MAD_RETURN_IF_ERROR(river.AddAttribute("length", DataType::kInt64));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("river", std::move(river)));

  // Areas carry the hectare measure so the paper's running example
  // σ[hectare > 1000](x(area, edge)) is expressible (Ch. 3.1).
  Schema area;
  MAD_RETURN_IF_ERROR(area.AddAttribute("name", DataType::kString));
  MAD_RETURN_IF_ERROR(area.AddAttribute("hectare", DataType::kInt64));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("area", std::move(area)));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("net", NameSchema()));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("edge", NameSchema()));

  Schema point;
  MAD_RETURN_IF_ERROR(point.AddAttribute("name", DataType::kString));
  MAD_RETURN_IF_ERROR(point.AddAttribute("x", DataType::kDouble));
  MAD_RETURN_IF_ERROR(point.AddAttribute("y", DataType::kDouble));
  MAD_RETURN_IF_ERROR(db.DefineAtomType("point", std::move(point)));

  // One link type per ER relationship type (Fig. 1: one-to-one mapping).
  MAD_RETURN_IF_ERROR(db.DefineLinkType("state-area", "state", "area"));
  MAD_RETURN_IF_ERROR(db.DefineLinkType("city-point", "city", "point"));
  MAD_RETURN_IF_ERROR(db.DefineLinkType("river-net", "river", "net"));
  MAD_RETURN_IF_ERROR(db.DefineLinkType("area-edge", "area", "edge"));
  MAD_RETURN_IF_ERROR(db.DefineLinkType("net-edge", "net", "edge"));
  MAD_RETURN_IF_ERROR(db.DefineLinkType("edge-point", "edge", "point"));
  return Status::OK();
}

}  // namespace

Result<GeoIds> BuildFigure4GeoDatabase(Database& db) {
  MAD_RETURN_IF_ERROR(DefineFigure1Schema(db));
  GeoIds ids;

  // States of Fig. 1 with hectare figures (thousands of km^2) chosen so the
  // paper's restriction example hectare > 1000 selects a proper subset.
  struct StateRow {
    const char* abbrev;
    int64_t hectare;
  };
  const StateRow kStates[] = {
      {"BA", 1500}, {"GO", 900}, {"MS", 1100}, {"MG", 900}, {"ES", 200},
      {"RJ", 150},  {"SP", 1000}, {"PR", 800},  {"SC", 400}, {"RS", 1050},
  };
  for (const StateRow& row : kStates) {
    MAD_ASSIGN_OR_RETURN(
        AtomId id,
        db.InsertAtom("state", {Value(row.abbrev), Value(row.hectare)}));
    ids.states[row.abbrev] = id;
  }

  struct RiverRow {
    const char* name;
    int64_t length;
  };
  const RiverRow kRivers[] = {
      {"Parana", 4880}, {"Amazonas", 6992}, {"Uruguai", 1838}};
  for (const RiverRow& row : kRivers) {
    MAD_ASSIGN_OR_RETURN(
        AtomId id, db.InsertAtom("river", {Value(row.name), Value(row.length)}));
    ids.rivers[row.name] = id;
  }

  // One area per state (a1..a10, in state order) and one net per river.
  const char* kAreaOwner[] = {"BA", "GO", "MS", "MG", "ES",
                              "RJ", "SP", "PR", "SC", "RS"};
  for (int i = 0; i < 10; ++i) {
    std::string aname = StrCat({"a", std::to_string(i + 1)});
    MAD_ASSIGN_OR_RETURN(
        AtomId id,
        db.InsertAtom("area", {Value(aname), Value(kStates[i].hectare)}));
    ids.areas[aname] = id;
    MAD_RETURN_IF_ERROR(
        db.InsertLink("state-area", ids.states[kAreaOwner[i]], id));
  }
  const char* kNetOwner[] = {"Parana", "Amazonas", "Uruguai"};
  for (int i = 0; i < 3; ++i) {
    std::string nname = StrCat({"n", std::to_string(i + 1)});
    MAD_ASSIGN_OR_RETURN(AtomId id, db.InsertAtom("net", {Value(nname)}));
    ids.nets[nname] = id;
    MAD_RETURN_IF_ERROR(db.InsertLink("river-net", ids.rivers[kNetOwner[i]], id));
  }

  // Edges e1..e12.
  for (int i = 1; i <= 12; ++i) {
    std::string ename = StrCat({"e", std::to_string(i)});
    MAD_ASSIGN_OR_RETURN(AtomId id, db.InsertAtom("edge", {Value(ename)}));
    ids.edges[ename] = id;
  }

  // Points: p1 is the paper's 'pn'; p2..p12 follow.
  for (int i = 1; i <= 12; ++i) {
    std::string pname = i == 1 ? "pn" : StrCat({"p", std::to_string(i)});
    MAD_ASSIGN_OR_RETURN(
        AtomId id, db.InsertAtom("point", {Value(pname), Value(i * 1.0),
                                           Value(i * 2.0)}));
    ids.points[pname] = id;
  }

  // Area borders (n:m): e1 in SP's area, e2 in MS's, e3 in MG's, e4 in GO's;
  // the Parana river (n1) runs along e1 (SP), e3 (MG), e5 (PR) — the shared
  // subobjects called out in Ch. 2.
  struct AE {
    const char* area;
    const char* edge;
  };
  const AE kAreaEdges[] = {
      {"a7", "e1"},  // SP
      {"a3", "e2"},  // MS
      {"a4", "e3"},  // MG
      {"a2", "e4"},  // GO
      {"a8", "e5"},  // PR
      {"a8", "e11"},
      {"a1", "e8"},  // BA
      {"a5", "e9"},  // ES
      {"a6", "e10"},  // RJ
      {"a9", "e12"},  // SC
      {"a10", "e7"},  // RS
  };
  for (const AE& ae : kAreaEdges) {
    MAD_RETURN_IF_ERROR(
        db.InsertLink("area-edge", ids.areas[ae.area], ids.edges[ae.edge]));
  }

  struct NE {
    const char* net;
    const char* edge;
  };
  const NE kNetEdges[] = {
      {"n1", "e1"}, {"n1", "e3"}, {"n1", "e5"},  // Parana shares SP/MG/PR
      {"n2", "e6"},                              // Amazonas
      {"n3", "e7"},                              // Uruguai along RS border
  };
  for (const NE& ne : kNetEdges) {
    MAD_RETURN_IF_ERROR(
        db.InsertLink("net-edge", ids.nets[ne.net], ids.edges[ne.edge]));
  }

  // Edge endpoints; point 'pn' is an endpoint of e1..e4, giving the Fig. 2
  // point-neighborhood molecule its four branches.
  struct EP {
    const char* edge;
    const char* point;
  };
  const EP kEdgePoints[] = {
      {"e1", "pn"}, {"e1", "p2"},  {"e2", "pn"},  {"e2", "p3"},
      {"e3", "pn"}, {"e3", "p4"},  {"e4", "pn"},  {"e4", "p5"},
      {"e5", "p6"}, {"e5", "p7"},  {"e6", "p7"},  {"e6", "p8"},
      {"e7", "p8"}, {"e7", "p9"},  {"e8", "p9"},  {"e8", "p10"},
      {"e9", "p10"}, {"e9", "p11"}, {"e10", "p11"}, {"e10", "p12"},
      {"e11", "p12"}, {"e11", "p6"}, {"e12", "p2"}, {"e12", "p3"},
  };
  for (const EP& ep : kEdgePoints) {
    MAD_RETURN_IF_ERROR(
        db.InsertLink("edge-point", ids.edges[ep.edge], ids.points[ep.point]));
  }

  // Three point-like city objects (Fig. 1 models cities through the shared
  // geographic model as well).
  struct CityRow {
    const char* name;
    const char* point;
  };
  const CityRow kCities[] = {{"Sao Paulo", "p2"},
                             {"Rio de Janeiro", "p11"},
                             {"Brasilia", "p5"}};
  for (const CityRow& row : kCities) {
    MAD_ASSIGN_OR_RETURN(AtomId id, db.InsertAtom("city", {Value(row.name)}));
    ids.cities[row.name] = id;
    MAD_RETURN_IF_ERROR(db.InsertLink("city-point", id, ids.points[row.point]));
  }

  return ids;
}

Result<GeoStats> GenerateScaledGeo(Database& db, const GeoScale& scale) {
  if (db.atom_type_count() != 0) {
    return Status::InvalidArgument("scaled geo generator needs an empty database");
  }
  MAD_RETURN_IF_ERROR(DefineFigure1Schema(db));
  std::mt19937_64 rng(scale.seed);

  std::vector<AtomId> areas;
  std::vector<std::vector<AtomId>> area_edges(
      static_cast<size_t>(scale.states));
  std::vector<AtomId> all_border_edges;

  // States with their areas, border edges, and corner points.
  for (int s = 0; s < scale.states; ++s) {
    std::string tag = std::to_string(s + 1);
    MAD_ASSIGN_OR_RETURN(
        AtomId state,
        db.InsertAtom("state", {Value("S" + tag),
                                Value(static_cast<int64_t>(rng() % 2000))}));
    MAD_ASSIGN_OR_RETURN(
        AtomId area,
        db.InsertAtom("area", {Value("a" + tag),
                               Value(static_cast<int64_t>(rng() % 2000))}));
    MAD_RETURN_IF_ERROR(db.InsertLink("state-area", state, area));
    areas.push_back(area);

    // A pool of corner points shared by this area's edges.
    std::vector<AtomId> pool;
    for (int p = 0; p < scale.point_pool_per_area; ++p) {
      std::string pname = "p" + tag + "_" + std::to_string(p + 1);
      MAD_ASSIGN_OR_RETURN(
          AtomId point,
          db.InsertAtom("point",
                        {Value(pname),
                         Value(static_cast<double>(rng() % 10000) / 10.0),
                         Value(static_cast<double>(rng() % 10000) / 10.0)}));
      pool.push_back(point);
    }

    for (int e = 0; e < scale.edges_per_area; ++e) {
      std::string ename = "e" + tag + "_" + std::to_string(e + 1);
      MAD_ASSIGN_OR_RETURN(AtomId edge, db.InsertAtom("edge", {Value(ename)}));
      MAD_RETURN_IF_ERROR(db.InsertLink("area-edge", area, edge));
      area_edges[static_cast<size_t>(s)].push_back(edge);
      all_border_edges.push_back(edge);
      // Two distinct endpoints from the pool (neighbouring edges share).
      size_t i = rng() % pool.size();
      size_t j = rng() % pool.size();
      if (j == i) j = (i + 1) % pool.size();
      MAD_RETURN_IF_ERROR(db.InsertLink("edge-point", edge, pool[i]));
      MAD_RETURN_IF_ERROR(db.InsertLink("edge-point", edge, pool[j]));
    }
  }

  // Rivers whose nets draw a configurable fraction of their course edges
  // from state borders — the n:m sharing of subobjects.
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int r = 0; r < scale.rivers; ++r) {
    std::string tag = std::to_string(r + 1);
    MAD_ASSIGN_OR_RETURN(
        AtomId river,
        db.InsertAtom("river", {Value("R" + tag),
                                Value(static_cast<int64_t>(rng() % 7000))}));
    MAD_ASSIGN_OR_RETURN(AtomId net, db.InsertAtom("net", {Value("n" + tag)}));
    MAD_RETURN_IF_ERROR(db.InsertLink("river-net", river, net));

    for (int e = 0; e < scale.edges_per_net; ++e) {
      AtomId edge;
      if (!all_border_edges.empty() &&
          unit(rng) < scale.shared_edge_fraction) {
        edge = all_border_edges[rng() % all_border_edges.size()];
        Status s = db.InsertLink("net-edge", net, edge);
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
      } else {
        std::string ename = "re" + tag + "_" + std::to_string(e + 1);
        MAD_ASSIGN_OR_RETURN(edge, db.InsertAtom("edge", {Value(ename)}));
        MAD_RETURN_IF_ERROR(db.InsertLink("net-edge", net, edge));
        // Fresh course edges take endpoints from a random area's pool via
        // that area's first edge partner set; simplest: two fresh points.
        for (int p = 0; p < 2; ++p) {
          std::string pname = "rp" + tag + "_" + std::to_string(2 * e + p + 1);
          MAD_ASSIGN_OR_RETURN(
              AtomId point,
              db.InsertAtom("point",
                            {Value(pname),
                             Value(static_cast<double>(rng() % 10000) / 10.0),
                             Value(static_cast<double>(rng() % 10000) / 10.0)}));
          MAD_RETURN_IF_ERROR(db.InsertLink("edge-point", edge, point));
        }
      }
    }
  }

  // A city on a random point of every fifth area's pool: point-like objects.
  auto point_type = db.GetAtomType("point");
  if (point_type.ok() && !(*point_type)->occurrence().empty()) {
    const auto& points = (*point_type)->occurrence().atoms();
    for (int c = 0; c < scale.states / 5 + 1; ++c) {
      MAD_ASSIGN_OR_RETURN(
          AtomId city,
          db.InsertAtom("city", {Value("C" + std::to_string(c + 1))}));
      AtomId point = points[rng() % points.size()].id;
      Status s = db.InsertLink("city-point", city, point);
      if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
    }
  }

  return GeoStats{db.total_atom_count(), db.total_link_count()};
}

}  // namespace workload
}  // namespace mad
