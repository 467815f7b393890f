#include "storage/binary_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "molecule/derivation.h"
#include "support/canonical_key.h"
#include "util/crc32.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace {

TEST(ByteCodecTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutFixed32(0xdeadbeef);
  w.PutFixed64(0x0123456789abcdefull);
  w.PutVarint(0);
  w.PutVarint(300);
  w.PutVarint(std::numeric_limits<uint64_t>::max());
  w.PutZigzag(-1);
  w.PutZigzag(std::numeric_limits<int64_t>::min());
  w.PutString("hello");
  w.PutString("");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8().value(), 0xab);
  EXPECT_EQ(r.GetFixed32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetFixed64().value(), 0x0123456789abcdefull);
  EXPECT_EQ(r.GetVarint().value(), 0u);
  EXPECT_EQ(r.GetVarint().value(), 300u);
  EXPECT_EQ(r.GetVarint().value(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(r.GetZigzag().value(), -1);
  EXPECT_EQ(r.GetZigzag().value(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodecTest, ReaderIsBoundsChecked) {
  ByteReader empty("");
  EXPECT_FALSE(empty.GetU8().ok());
  EXPECT_FALSE(empty.GetFixed32().ok());
  EXPECT_FALSE(empty.GetVarint().ok());
  EXPECT_FALSE(empty.GetString().ok());

  // A string whose declared length exceeds the remaining input.
  ByteWriter w;
  w.PutVarint(100);
  std::string lying = w.bytes() + "short";
  ByteReader r(lying);
  EXPECT_FALSE(r.GetString().ok()) << "length prefix lies about the payload";

  // An unterminated varint.
  std::string endless(11, '\x80');
  ByteReader v(endless);
  EXPECT_FALSE(v.GetVarint().ok());
}

TEST(BinaryCodecTest, RoundTripPreservesEverything) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(db.CreateIndex("state", "name").ok());

  auto bytes = SerializeDatabaseBinary(db);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DeserializeDatabaseBinary(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ((*restored)->name(), "GEO_DB");
  EXPECT_EQ((*restored)->atom_type_count(), db.atom_type_count());
  EXPECT_EQ((*restored)->link_type_count(), db.link_type_count());
  EXPECT_EQ((*restored)->total_atom_count(), db.total_atom_count());
  EXPECT_EQ((*restored)->total_link_count(), db.total_link_count());
  EXPECT_EQ((*restored)->last_atom_id(), db.last_atom_id());
  auto v = (*restored)->GetAttribute("state", ids->states["SP"], "hectare");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 1000);
  EXPECT_NE((*restored)->FindIndex("state", "name"), nullptr);
  EXPECT_TRUE((*restored)->CheckConsistency().ok());
}

TEST(BinaryCodecTest, ReserializationIsBitIdentical) {
  Database db("BOM");
  ASSERT_TRUE(workload::BuildCarBom(db).ok());
  auto bytes = SerializeDatabaseBinary(db);
  ASSERT_TRUE(bytes.ok());
  auto restored = DeserializeDatabaseBinary(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto again = SerializeDatabaseBinary(**restored);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*bytes, *again) << "deterministic serialization contract";
}

TEST(BinaryCodecTest, RejectsRowMajorV1Checkpoints) {
  // Hand-build a v1 image (version word 1, atoms row-major): the reader
  // reads only the columnar v2 layout the writer produces.
  std::string image;
  image.append("MADB", 4);
  {
    ByteWriter version;
    version.PutFixed32(1);
    image.append(version.bytes());
  }
  auto append_section = [&image](uint8_t tag, const ByteWriter& payload) {
    ByteWriter header;
    header.PutU8(tag);
    header.PutFixed32(static_cast<uint32_t>(payload.size()));
    header.PutFixed32(Crc32(payload.bytes()));
    image.append(header.bytes());
    image.append(payload.bytes());
  };
  {
    ByteWriter meta;  // tag 1
    meta.PutString("V1_DB");
    meta.PutVarint(2);  // last atom id
    append_section(1, meta);
  }
  {
    ByteWriter schema;  // tag 2
    schema.PutVarint(1);  // one atom type
    schema.PutString("t");
    schema.PutVarint(2);  // two attributes
    schema.PutString("name");
    schema.PutU8(static_cast<uint8_t>(DataType::kString));
    schema.PutString("n");
    schema.PutU8(static_cast<uint8_t>(DataType::kInt64));
    schema.PutVarint(0);  // no link types
    append_section(2, schema);
  }
  {
    ByteWriter atoms;  // tag 3, row-major: id then that atom's values
    atoms.PutVarint(1);  // one atom type
    atoms.PutVarint(2);  // two atoms
    atoms.PutVarint(1);
    atoms.PutValue(Value("a"));
    atoms.PutValue(Value(int64_t{10}));
    atoms.PutVarint(2);
    atoms.PutValue(Value("b"));
    atoms.PutValue(Value(int64_t{20}));
    append_section(3, atoms);
  }
  append_section(4, [] {
    ByteWriter links;
    links.PutVarint(0);
    return links;
  }());
  append_section(5, [] {
    ByteWriter indexes;
    indexes.PutVarint(0);
    return indexes;
  }());
  append_section(6, ByteWriter());

  auto restored = DeserializeDatabaseBinary(image);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find(
                "unsupported binary checkpoint version 1"),
            std::string::npos)
      << restored.status();
}

TEST(BinaryCodecTest, AtomIdCounterSurvivesDeletionOfHighestId) {
  Database db("ids");
  // An atom type with no attributes round-trips too.
  ASSERT_TRUE(db.DefineAtomType("t", Schema()).ok());
  auto a = db.InsertAtom("t", {});
  auto b = db.InsertAtom("t", {});
  ASSERT_TRUE(a.ok() && b.ok());
  // Delete the atom carrying the highest-ever id.
  ASSERT_TRUE(db.DeleteAtom("t", *b).ok());

  auto bytes = SerializeDatabaseBinary(db);
  ASSERT_TRUE(bytes.ok());
  auto restored = DeserializeDatabaseBinary(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE((*(*restored)->GetAtomType("t"))->occurrence().Contains(*a));
  EXPECT_EQ((*(*restored)->GetAtomType("t"))->occurrence().size(), 1u);
  // A fresh insert must not resurrect the deleted id.
  auto fresh = (*restored)->InsertAtom("t", {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, *b);
  EXPECT_GT(fresh->value, b->value);
}

TEST(BinaryCodecTest, NonFiniteDoublesAreBitExact) {
  Database db("doubles");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("d", DataType::kDouble).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(s)).ok());
  const double cases[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          -0.0,
                          0.1,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::min()};
  for (double d : cases) ASSERT_TRUE(db.InsertAtom("t", {Value(d)}).ok());

  auto bytes = SerializeDatabaseBinary(db);
  ASSERT_TRUE(bytes.ok());
  auto restored = DeserializeDatabaseBinary(*bytes);
  ASSERT_TRUE(restored.ok());
  const auto& atoms = (*(*restored)->GetAtomType("t"))->occurrence().atoms();
  ASSERT_EQ(atoms.size(), std::size(cases));
  for (size_t i = 0; i < std::size(cases); ++i) {
    double got = atoms[i].values[0].AsDouble();
    if (std::isnan(cases[i])) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(got, cases[i]);
      EXPECT_EQ(std::signbit(got), std::signbit(cases[i]));
    }
  }
}

TEST(BinaryCodecTest, AllValueTypesRoundTrip) {
  Database db("tricky name with spaces");
  Schema s;
  ASSERT_TRUE(s.AddAttribute("i", DataType::kInt64).ok());
  ASSERT_TRUE(s.AddAttribute("d", DataType::kDouble).ok());
  ASSERT_TRUE(s.AddAttribute("s", DataType::kString).ok());
  ASSERT_TRUE(s.AddAttribute("b", DataType::kBool).ok());
  ASSERT_TRUE(db.DefineAtomType("t", std::move(s)).ok());
  const std::string hostile = "line\nbreak %25 tab\t 'quote' S I N D";
  ASSERT_TRUE(db.InsertAtom("t", {Value(int64_t{-42}), Value(0.1),
                                  Value(hostile), Value(false)})
                  .ok());
  ASSERT_TRUE(db.InsertAtom("t", {Value(), Value(), Value(), Value()}).ok());

  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_EQ((*clone)->name(), "tricky name with spaces");
  const auto& atoms = (*(*clone)->GetAtomType("t"))->occurrence().atoms();
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0].values[0].AsInt64(), -42);
  EXPECT_DOUBLE_EQ(atoms[0].values[1].AsDouble(), 0.1);
  EXPECT_EQ(atoms[0].values[2].AsString(), hostile);
  EXPECT_EQ(atoms[0].values[3].AsBool(), false);
  for (const Value& v : atoms[1].values) EXPECT_TRUE(v.is_null());
}

TEST(BinaryCodecTest, RejectsCorruptInput) {
  Database db("GEO_DB");
  ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db).ok());
  auto bytes = SerializeDatabaseBinary(db);
  ASSERT_TRUE(bytes.ok());

  EXPECT_FALSE(DeserializeDatabaseBinary("").ok());
  EXPECT_FALSE(DeserializeDatabaseBinary("MADX").ok());
  EXPECT_FALSE(DeserializeDatabaseBinary(bytes->substr(0, 4)).ok());

  // Every truncation is detected.
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    auto r = DeserializeDatabaseBinary(bytes->substr(0, cut));
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " must be detected";
  }
  // Trailing garbage is detected.
  EXPECT_FALSE(DeserializeDatabaseBinary(*bytes + "x").ok());
  // A flipped payload byte trips the section CRC.
  std::string flipped = *bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  auto r = DeserializeDatabaseBinary(flipped);
  EXPECT_FALSE(r.ok());
}

TEST(BinaryCodecTest, CloneDatabaseDerivesIdenticalMolecules) {
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

  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok()) << clone.status();
  EXPECT_EQ((*clone)->last_atom_id(), db.last_atom_id());
  auto md2 = MoleculeDescription::CreateFromTypes(
      **clone, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md2.ok());
  auto rederived = DeriveMolecules(**clone, *md2);
  ASSERT_TRUE(rederived.ok());
  ASSERT_EQ(original->size(), rederived->size());
  for (size_t i = 0; i < original->size(); ++i) {
    EXPECT_EQ(reference::CanonicalKey((*original)[i]),
              reference::CanonicalKey((*rederived)[i]));
  }
}

TEST(BinaryCodecTest, CloneIsIndependent) {
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

TEST(BinaryCodecTest, NoImageWhileATransactionIsOpen) {
  // The head holds an open transaction's uncommitted versions, so an image
  // taken then would keep writes that are later rolled back.
  Database db("txn");
  ASSERT_TRUE(db.DefineAtomType("t", Schema()).ok());
  auto committed = db.InsertAtom("t", {});
  ASSERT_TRUE(committed.ok());
  std::unique_ptr<Transaction> txn = db.Begin();
  auto pending = db.InsertAtom("t", {}, txn.get());
  ASSERT_TRUE(pending.ok());

  auto bytes = SerializeDatabaseBinary(db);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kConstraintViolation);
  auto refused = CloneDatabase(db);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kConstraintViolation);

  ASSERT_TRUE(txn->Rollback().ok());
  auto clone = CloneDatabase(db);
  ASSERT_TRUE(clone.ok()) << clone.status();
  const AtomStore& atoms = (*(*clone)->GetAtomType("t"))->occurrence();
  EXPECT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(atoms.Contains(*committed));
  EXPECT_FALSE(atoms.Contains(*pending));
}

}  // namespace
}  // namespace mad
