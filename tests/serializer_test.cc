#include "storage/serializer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "molecule/derivation.h"
#include "support/canonical_key.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace {

TEST(SerializerTest, RoundTripFigure4Database) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(db.CreateIndex("state", "name").ok());

  auto text = SerializeDatabase(db);
  ASSERT_TRUE(text.ok()) << text.status();
  auto restored = DeserializeDatabase(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ((*restored)->name(), "GEO_DB");
  EXPECT_EQ((*restored)->atom_type_count(), db.atom_type_count());
  EXPECT_EQ((*restored)->link_type_count(), db.link_type_count());
  EXPECT_EQ((*restored)->total_atom_count(), db.total_atom_count());
  EXPECT_EQ((*restored)->total_link_count(), db.total_link_count());
  // Atom ids and values survive.
  auto v = (*restored)->GetAttribute("state", ids->states["SP"], "hectare");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 1000);
  // Index definitions survive and are rebuilt.
  EXPECT_NE((*restored)->FindIndex("state", "name"), nullptr);
  EXPECT_TRUE((*restored)->CheckConsistency().ok());
}

TEST(SerializerTest, RestoredDatabaseDerivesIdenticalMolecules) {
  Database db("GEO_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok());
  auto original = DeriveMolecules(db, *md);
  ASSERT_TRUE(original.ok());

  auto restored = CloneDatabase(db);
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto md2 = MoleculeDescription::CreateFromTypes(
      **restored, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md2.ok());
  auto rederived = DeriveMolecules(**restored, *md2);
  ASSERT_TRUE(rederived.ok());

  ASSERT_EQ(original->size(), rederived->size());
  for (size_t i = 0; i < original->size(); ++i) {
    EXPECT_EQ(reference::CanonicalKey((*original)[i]),
              reference::CanonicalKey((*rederived)[i]));
  }
}

TEST(SerializerTest, CloneIsIndependent) {
  Database db("BOM");
  auto ids = workload::BuildCarBom(db);
  ASSERT_TRUE(ids.ok());
  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok());
  // Mutating the clone leaves the original untouched.
  ASSERT_TRUE((*clone)->DeleteAtom("part", (*ids)["bolt"]).ok());
  EXPECT_EQ((*clone)->total_atom_count(), 4u);
  EXPECT_EQ(db.total_atom_count(), 5u);
  EXPECT_EQ((*db.GetLinkType("composition"))->occurrence().size(), 5u);
  // Fresh ids in the clone do not collide with preserved ids.
  auto fresh = (*clone)->InsertAtom("part", {Value("new"), Value(int64_t{2})});
  ASSERT_TRUE(fresh.ok());
  for (const Atom& atom : (*db.GetAtomType("part"))->occurrence().atoms()) {
    EXPECT_NE(atom.id, *fresh);
  }
}

TEST(SerializerTest, EscapingSurvivesHostileStrings) {
  Database db("tricky name with spaces");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("text", DataType::kString).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(s)).ok());
  const std::string hostile = "line\nbreak %25 tab\t 'quote' S I N D";
  ASSERT_TRUE(db.InsertAtom("t", {Value(hostile)}).ok());
  ASSERT_TRUE(db.InsertAtom("t", {Value()}).ok());  // null value

  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_EQ((*clone)->name(), "tricky name with spaces");
  const auto& atoms = (*(*clone)->GetAtomType("t"))->occurrence().atoms();
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0].values[0].AsString(), hostile);
  EXPECT_TRUE(atoms[1].values[0].is_null());
}

TEST(SerializerTest, AllValueTypesRoundTrip) {
  Database db("typed");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("i", DataType::kInt64).ok());
  ASSERT_TRUE(s.AddAttribute("d", DataType::kDouble).ok());
  ASSERT_TRUE(s.AddAttribute("s", DataType::kString).ok());
  ASSERT_TRUE(s.AddAttribute("b", DataType::kBool).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(s)).ok());
  ASSERT_TRUE(db.InsertAtom("t", {Value(int64_t{-42}), Value(0.1),
                                  Value("x"), Value(false)})
                  .ok());
  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok());
  const Atom& atom = (*(*clone)->GetAtomType("t"))->occurrence().atoms()[0];
  EXPECT_EQ(atom.values[0].AsInt64(), -42);
  EXPECT_DOUBLE_EQ(atom.values[1].AsDouble(), 0.1);
  EXPECT_EQ(atom.values[2].AsString(), "x");
  EXPECT_EQ(atom.values[3].AsBool(), false);
}

TEST(SerializerTest, NonFiniteAndEdgeDoublesRoundTrip) {
  Database db("doubles");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("d", DataType::kDouble).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(s)).ok());
  const double cases[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.1,                                       // needs 17 digits
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::min(),
  };
  for (double d : cases) ASSERT_TRUE(db.InsertAtom("t", {Value(d)}).ok());

  // Through the text format explicitly (CloneDatabase is binary now).
  auto text = SerializeDatabase(db);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("Dnan"), std::string::npos);
  EXPECT_NE(text->find("Dinf"), std::string::npos);
  EXPECT_NE(text->find("D-inf"), std::string::npos);
  auto restored = DeserializeDatabase(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const auto& atoms = (*(*restored)->GetAtomType("t"))->occurrence().atoms();
  ASSERT_EQ(atoms.size(), std::size(cases));
  for (size_t i = 0; i < std::size(cases); ++i) {
    double got = atoms[i].values[0].AsDouble();
    if (std::isnan(cases[i])) {
      EXPECT_TRUE(std::isnan(got)) << "case " << i;
    } else {
      EXPECT_EQ(got, cases[i]) << "case " << i;
      // -0.0 == 0.0 compares equal; pin the sign bit down too.
      EXPECT_EQ(std::signbit(got), std::signbit(cases[i])) << "case " << i;
    }
  }
}

TEST(SerializerTest, RejectsMalformedValueTokens) {
  auto with_value = [](const std::string& token) {
    return "MADDB 1\nDATABASE x\nATOMTYPE t 1\nATTR a DOUBLE\nATOM 1 " +
           token + "\nEND\n";
  };
  auto int_value = [](const std::string& token) {
    return "MADDB 1\nDATABASE x\nATOMTYPE t 1\nATTR a INT64\nATOM 1 " +
           token + "\nEND\n";
  };
  // Well-formed forms parse.
  EXPECT_TRUE(DeserializeDatabase(with_value("Dnan")).ok());
  EXPECT_TRUE(DeserializeDatabase(with_value("Dinf")).ok());
  EXPECT_TRUE(DeserializeDatabase(with_value("D-inf")).ok());
  EXPECT_TRUE(DeserializeDatabase(with_value("D-0")).ok());
  EXPECT_TRUE(DeserializeDatabase(int_value("I-42")).ok());
  // Malformed ones are a ParseError, not silently truncated.
  for (const char* bad :
       {"D", "D12abc", "Dinfinity", "D-infinity", "DNaN(tag)", "D1e999",
        "Dnanx", "D--1"}) {
    auto r = DeserializeDatabase(with_value(bad));
    ASSERT_FALSE(r.ok()) << "token '" << bad << "' must be rejected";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << bad;
  }
  for (const char* bad : {"I", "I12abc", "I1.5", "I99999999999999999999"}) {
    auto r = DeserializeDatabase(int_value(bad));
    ASSERT_FALSE(r.ok()) << "token '" << bad << "' must be rejected";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << bad;
  }
  // Null with a payload is malformed too.
  auto null_trailing = DeserializeDatabase(
      "MADDB 1\nDATABASE x\nATOMTYPE t 1\nATTR a INT64\nATOM 1 Nx\nEND\n");
  EXPECT_FALSE(null_trailing.ok());
}

TEST(SerializerTest, SeventeenDigitPrecisionSurvivesTextRoundTrip) {
  Database db("precise");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("d", DataType::kDouble).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(s)).ok());
  // A value whose nearest-17-digit decimal differs from its 16-digit one.
  const double tricky = 0.1 + 0.2;  // 0.30000000000000004
  ASSERT_TRUE(db.InsertAtom("t", {Value(tricky)}).ok());
  ASSERT_TRUE(db.InsertAtom("t", {Value(1.0 / 3.0)}).ok());

  auto text = SerializeDatabase(db);
  ASSERT_TRUE(text.ok());
  auto restored = DeserializeDatabase(*text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const auto& atoms = (*(*restored)->GetAtomType("t"))->occurrence().atoms();
  uint64_t bits_want = 0;
  uint64_t bits_got = 0;
  double want = tricky;
  double got = atoms[0].values[0].AsDouble();
  std::memcpy(&bits_want, &want, sizeof(want));
  std::memcpy(&bits_got, &got, sizeof(got));
  EXPECT_EQ(bits_got, bits_want) << "bit-exact round trip required";
  EXPECT_EQ(atoms[1].values[0].AsDouble(), 1.0 / 3.0);
}

TEST(SerializerTest, EmptySchemaAtomTypeRoundTrips) {
  Database db("empty");
  ASSERT_TRUE(db.DefineAtomType("pair", Schema()).ok());
  ASSERT_TRUE(db.InsertAtom("pair", {}).ok());
  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_EQ((*(*clone)->GetAtomType("pair"))->occurrence().size(), 1u);
}

TEST(SerializerTest, RejectsMalformedInput) {
  EXPECT_FALSE(DeserializeDatabase("").ok());
  EXPECT_FALSE(DeserializeDatabase("GARBAGE 1\n").ok());
  EXPECT_FALSE(DeserializeDatabase("MADDB 99\nDATABASE x\nEND\n").ok());
  EXPECT_FALSE(DeserializeDatabase("MADDB 1\nDATABASE x\n").ok())
      << "missing END must be detected";
  EXPECT_FALSE(
      DeserializeDatabase("MADDB 1\nDATABASE x\nATOM 1 Sfoo\nEND\n").ok())
      << "ATOM before ATOMTYPE must be detected";
  EXPECT_FALSE(
      DeserializeDatabase("MADDB 1\nDATABASE x\nEND\ntrailing\n").ok());
  EXPECT_FALSE(DeserializeDatabase(
                   "MADDB 1\nDATABASE x\nATOMTYPE t 1\nATTR a BLOB\nEND\n")
                   .ok());
  // Dangling link in the payload is rejected by referential integrity.
  EXPECT_FALSE(DeserializeDatabase("MADDB 1\nDATABASE x\n"
                                   "ATOMTYPE t 1\nATTR a STRING\n"
                                   "LINKTYPE l t t\nLINK 5 6\nEND\n")
                   .ok());
}

}  // namespace
}  // namespace mad
