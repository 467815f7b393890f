#include "storage/binary_codec.h"

#include <cstring>

#include "util/crc32.h"

namespace mad {

namespace {

constexpr char kMagic[4] = {'M', 'A', 'D', 'B'};
/// v2 writes each type's atoms column-major — all ids, then all values of
/// slot 0, slot 1, ... — so the checkpoint layout matches the in-memory
/// ColumnSet and loads stream one attribute at a time. The row-major v1
/// layout is no longer read.
constexpr uint32_t kVersion = 2;

/// Section tags, in the order sections must appear in a checkpoint.
enum class SectionTag : uint8_t {
  kMeta = 1,
  kSchema = 2,
  kAtoms = 3,
  kLinks = 4,
  kIndexes = 5,
  kEnd = 6,
};

/// Upper bound on any single section or string — rejects absurd lengths
/// decoded from corrupted input before they reach an allocation.
constexpr uint64_t kMaxSaneLength = uint64_t{1} << 30;

/// Value type tags of the binary value encoding.
enum class ValueTag : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kBool = 4,
};

}  // namespace

// ---- ByteWriter -----------------------------------------------------------

void ByteWriter::PutFixed32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutZigzag(int64_t v) {
  PutVarint((static_cast<uint64_t>(v) << 1) ^
            static_cast<uint64_t>(v >> 63));
}

void ByteWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  out_.append(s.data(), s.size());
}

void ByteWriter::PutValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      PutU8(static_cast<uint8_t>(ValueTag::kNull));
      return;
    case DataType::kInt64:
      PutU8(static_cast<uint8_t>(ValueTag::kInt64));
      PutZigzag(v.AsInt64());
      return;
    case DataType::kDouble: {
      PutU8(static_cast<uint8_t>(ValueTag::kDouble));
      uint64_t bits = 0;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      PutFixed64(bits);
      return;
    }
    case DataType::kString:
      PutU8(static_cast<uint8_t>(ValueTag::kString));
      PutString(v.AsString());
      return;
    case DataType::kBool:
      PutU8(static_cast<uint8_t>(ValueTag::kBool));
      PutU8(v.AsBool() ? 1 : 0);
      return;
  }
  PutU8(static_cast<uint8_t>(ValueTag::kNull));
}

// ---- ByteReader -----------------------------------------------------------

Result<uint8_t> ByteReader::GetU8() {
  if (pos_ >= bytes_.size()) {
    return Status::ParseError("binary input truncated (byte)");
  }
  return static_cast<uint8_t>(bytes_[pos_++]);
}

Result<uint32_t> ByteReader::GetFixed32() {
  if (remaining() < 4) {
    return Status::ParseError("binary input truncated (fixed32)");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetFixed64() {
  if (remaining() < 8) {
    return Status::ParseError("binary input truncated (fixed64)");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<uint64_t> ByteReader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    MAD_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte & 0x7e) != 0) {
        return Status::ParseError("varint overflows 64 bits");
      }
      return v;
    }
  }
  return Status::ParseError("varint longer than 10 bytes");
}

Result<int64_t> ByteReader::GetZigzag() {
  MAD_ASSIGN_OR_RETURN(uint64_t raw, GetVarint());
  return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

Result<std::string> ByteReader::GetString() {
  MAD_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
  if (len > kMaxSaneLength || len > remaining()) {
    return Status::ParseError("string length exceeds remaining input");
  }
  std::string out(bytes_.substr(pos_, len));
  pos_ += len;
  return out;
}

Result<std::string_view> ByteReader::GetBytes(size_t n) {
  if (n > remaining()) {
    return Status::ParseError("binary input truncated (raw bytes)");
  }
  std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

Result<Value> ByteReader::GetValue() {
  MAD_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNull:
      return Value();
    case ValueTag::kInt64: {
      MAD_ASSIGN_OR_RETURN(int64_t v, GetZigzag());
      return Value(v);
    }
    case ValueTag::kDouble: {
      MAD_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64());
      double d = 0.0;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case ValueTag::kString: {
      MAD_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value(std::move(s));
    }
    case ValueTag::kBool: {
      MAD_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      if (b > 1) return Status::ParseError("bad bool value byte");
      return Value(b == 1);
    }
  }
  return Status::ParseError("unknown value tag " + std::to_string(tag));
}

// ---- Checkpoint writer ----------------------------------------------------

namespace {

void AppendSection(SectionTag tag, const ByteWriter& payload,
                   std::string* out) {
  ByteWriter header;
  header.PutU8(static_cast<uint8_t>(tag));
  header.PutFixed32(static_cast<uint32_t>(payload.size()));
  header.PutFixed32(Crc32(payload.bytes()));
  out->append(header.bytes());
  out->append(payload.bytes());
}

}  // namespace

Result<std::string> SerializeDatabaseBinary(const Database& db) {
  // Loading an image of an open transaction's uncommitted versions would
  // bring back writes no COMMIT made.
  if (db.HasActiveTransactions()) {
    return Status::ConstraintViolation(
        "cannot write a database image while transactions are open; commit "
        "or roll back first");
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  {
    ByteWriter version;
    version.PutFixed32(kVersion);
    out.append(version.bytes());
  }

  {
    ByteWriter meta;
    meta.PutString(db.name());
    meta.PutVarint(db.last_atom_id());
    AppendSection(SectionTag::kMeta, meta, &out);
  }
  {
    ByteWriter schema;
    schema.PutVarint(db.atom_type_count());
    for (const AtomType* at : db.atom_types()) {
      schema.PutString(at->name());
      schema.PutVarint(at->description().attribute_count());
      for (const AttributeDescription& attr : at->description().attributes()) {
        schema.PutString(attr.name);
        schema.PutU8(static_cast<uint8_t>(attr.type));
      }
    }
    schema.PutVarint(db.link_type_count());
    for (const LinkType* lt : db.link_types()) {
      schema.PutString(lt->name());
      schema.PutString(lt->first_atom_type());
      schema.PutString(lt->second_atom_type());
      schema.PutU8(static_cast<uint8_t>(lt->cardinality()));
    }
    AppendSection(SectionTag::kSchema, schema, &out);
  }
  {
    ByteWriter atoms;
    atoms.PutVarint(db.atom_type_count());
    for (const AtomType* at : db.atom_types()) {
      const size_t arity = at->description().attribute_count();
      atoms.PutVarint(at->occurrence().size());
      // Columnar layout (v2): the id column first, then each attribute slot
      // as one contiguous run over all atoms of the type.
      for (const Atom& atom : at->occurrence().atoms()) {
        atoms.PutVarint(atom.id.value);
      }
      for (size_t s = 0; s < arity; ++s) {
        for (const Atom& atom : at->occurrence().atoms()) {
          atoms.PutValue(atom.values[s]);
        }
      }
    }
    AppendSection(SectionTag::kAtoms, atoms, &out);
  }
  {
    ByteWriter links;
    links.PutVarint(db.link_type_count());
    for (const LinkType* lt : db.link_types()) {
      links.PutVarint(lt->occurrence().size());
      for (const Link& link : lt->occurrence().links()) {
        links.PutVarint(link.first.value);
        links.PutVarint(link.second.value);
      }
    }
    AppendSection(SectionTag::kLinks, links, &out);
  }
  {
    ByteWriter indexes;
    size_t count = 0;
    for (const AtomType* at : db.atom_types()) {
      for (const AttributeDescription& attr : at->description().attributes()) {
        if (db.FindIndex(at->name(), attr.name) != nullptr) ++count;
      }
    }
    indexes.PutVarint(count);
    for (const AtomType* at : db.atom_types()) {
      for (const AttributeDescription& attr : at->description().attributes()) {
        if (db.FindIndex(at->name(), attr.name) != nullptr) {
          indexes.PutString(at->name());
          indexes.PutString(attr.name);
        }
      }
    }
    AppendSection(SectionTag::kIndexes, indexes, &out);
  }
  AppendSection(SectionTag::kEnd, ByteWriter(), &out);
  return out;
}

// ---- Checkpoint reader ----------------------------------------------------

namespace {

/// Reads one framed section, verifies its CRC, and returns a reader over
/// the payload.
Result<std::pair<SectionTag, ByteReader>> ReadSection(ByteReader* in) {
  MAD_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  if (tag < static_cast<uint8_t>(SectionTag::kMeta) ||
      tag > static_cast<uint8_t>(SectionTag::kEnd)) {
    return Status::ParseError("unknown section tag " + std::to_string(tag));
  }
  MAD_ASSIGN_OR_RETURN(uint32_t len, in->GetFixed32());
  MAD_ASSIGN_OR_RETURN(uint32_t crc, in->GetFixed32());
  if (len > kMaxSaneLength) {
    return Status::ParseError("section length out of range");
  }
  MAD_ASSIGN_OR_RETURN(std::string_view payload, in->GetBytes(len));
  if (Crc32(payload) != crc) {
    return Status::ParseError("section CRC mismatch (tag " +
                              std::to_string(tag) + ")");
  }
  return std::make_pair(static_cast<SectionTag>(tag), ByteReader(payload));
}

Result<ByteReader> ExpectSection(ByteReader* in, SectionTag expected) {
  MAD_ASSIGN_OR_RETURN(auto section, ReadSection(in));
  if (section.first != expected) {
    return Status::ParseError(
        "unexpected section order (tag " +
        std::to_string(static_cast<uint8_t>(section.first)) + ", expected " +
        std::to_string(static_cast<uint8_t>(expected)) + ")");
  }
  return section.second;
}

}  // namespace

Result<std::unique_ptr<Database>> DeserializeDatabaseBinary(
    std::string_view bytes) {
  ByteReader in(bytes);
  MAD_ASSIGN_OR_RETURN(std::string_view magic, in.GetBytes(sizeof(kMagic)));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("bad binary checkpoint magic");
  }
  MAD_ASSIGN_OR_RETURN(uint32_t version, in.GetFixed32());
  if (version != kVersion) {
    return Status::ParseError("unsupported binary checkpoint version " +
                              std::to_string(version));
  }

  // Meta.
  MAD_ASSIGN_OR_RETURN(ByteReader meta, ExpectSection(&in, SectionTag::kMeta));
  MAD_ASSIGN_OR_RETURN(std::string name, meta.GetString());
  MAD_ASSIGN_OR_RETURN(uint64_t last_atom_id, meta.GetVarint());
  auto db = std::make_unique<Database>(std::move(name));

  // Schema: atom types, then link types.
  MAD_ASSIGN_OR_RETURN(ByteReader schema,
                       ExpectSection(&in, SectionTag::kSchema));
  MAD_ASSIGN_OR_RETURN(uint64_t atom_type_count, schema.GetVarint());
  if (atom_type_count > kMaxSaneLength) {
    return Status::ParseError("atom type count out of range");
  }
  std::vector<std::string> atom_type_names;
  std::vector<size_t> arities;
  atom_type_names.reserve(atom_type_count);
  for (uint64_t i = 0; i < atom_type_count; ++i) {
    MAD_ASSIGN_OR_RETURN(std::string aname, schema.GetString());
    MAD_ASSIGN_OR_RETURN(uint64_t attr_count, schema.GetVarint());
    if (attr_count > kMaxSaneLength) {
      return Status::ParseError("attribute count out of range");
    }
    Schema description;
    for (uint64_t j = 0; j < attr_count; ++j) {
      MAD_ASSIGN_OR_RETURN(std::string attr, schema.GetString());
      MAD_ASSIGN_OR_RETURN(uint8_t type, schema.GetU8());
      if (type < static_cast<uint8_t>(DataType::kInt64) ||
          type > static_cast<uint8_t>(DataType::kBool)) {
        return Status::ParseError("bad attribute data type " +
                                  std::to_string(type));
      }
      MAD_RETURN_IF_ERROR(
          description.AddAttribute(attr, static_cast<DataType>(type)));
    }
    arities.push_back(description.attribute_count());
    MAD_RETURN_IF_ERROR(db->DefineAtomType(aname, std::move(description)));
    atom_type_names.push_back(std::move(aname));
  }
  MAD_ASSIGN_OR_RETURN(uint64_t link_type_count, schema.GetVarint());
  if (link_type_count > kMaxSaneLength) {
    return Status::ParseError("link type count out of range");
  }
  std::vector<std::string> link_type_names;
  link_type_names.reserve(link_type_count);
  for (uint64_t i = 0; i < link_type_count; ++i) {
    MAD_ASSIGN_OR_RETURN(std::string lname, schema.GetString());
    MAD_ASSIGN_OR_RETURN(std::string first, schema.GetString());
    MAD_ASSIGN_OR_RETURN(std::string second, schema.GetString());
    MAD_ASSIGN_OR_RETURN(uint8_t cardinality, schema.GetU8());
    if (cardinality > static_cast<uint8_t>(LinkCardinality::kManyToMany)) {
      return Status::ParseError("bad link cardinality " +
                                std::to_string(cardinality));
    }
    MAD_RETURN_IF_ERROR(db->DefineLinkType(
        lname, first, second, static_cast<LinkCardinality>(cardinality)));
    link_type_names.push_back(std::move(lname));
  }
  if (!schema.exhausted()) {
    return Status::ParseError("trailing bytes in schema section");
  }

  // Atoms, aligned with the schema section's atom-type order.
  MAD_ASSIGN_OR_RETURN(ByteReader atoms, ExpectSection(&in, SectionTag::kAtoms));
  MAD_ASSIGN_OR_RETURN(uint64_t atoms_type_count, atoms.GetVarint());
  if (atoms_type_count != atom_type_count) {
    return Status::ParseError("atoms section type count mismatch");
  }
  for (uint64_t i = 0; i < atoms_type_count; ++i) {
    MAD_ASSIGN_OR_RETURN(uint64_t atom_count, atoms.GetVarint());
    // Every atom needs at least one payload byte (its id varint), so a
    // count beyond the remaining payload is corrupt — reject before the
    // upfront columnar allocations below.
    if (atom_count > kMaxSaneLength || atom_count > atoms.remaining()) {
      return Status::ParseError("atom count out of range");
    }
    if (auto at = db->GetMutableAtomType(atom_type_names[i]); at.ok()) {
      (*at)->mutable_occurrence().Reserve(atom_count);
    }
    // The id column, then one contiguous value run per attribute slot.
    // Atoms materialize after the transpose.
    std::vector<uint64_t> ids;
    ids.reserve(atom_count);
    for (uint64_t j = 0; j < atom_count; ++j) {
      MAD_ASSIGN_OR_RETURN(uint64_t id, atoms.GetVarint());
      ids.push_back(id);
    }
    std::vector<std::vector<Value>> rows(
        atom_count, std::vector<Value>());
    for (auto& row : rows) row.reserve(arities[i]);
    for (size_t s = 0; s < arities[i]; ++s) {
      for (uint64_t j = 0; j < atom_count; ++j) {
        MAD_ASSIGN_OR_RETURN(Value v, atoms.GetValue());
        rows[j].push_back(std::move(v));
      }
    }
    for (uint64_t j = 0; j < atom_count; ++j) {
      MAD_RETURN_IF_ERROR(db->InsertAtomWithId(
          atom_type_names[i], AtomId{ids[j]}, std::move(rows[j])));
    }
  }
  if (!atoms.exhausted()) {
    return Status::ParseError("trailing bytes in atoms section");
  }

  // Links, aligned with the schema section's link-type order.
  MAD_ASSIGN_OR_RETURN(ByteReader links, ExpectSection(&in, SectionTag::kLinks));
  MAD_ASSIGN_OR_RETURN(uint64_t links_type_count, links.GetVarint());
  if (links_type_count != link_type_count) {
    return Status::ParseError("links section type count mismatch");
  }
  for (uint64_t i = 0; i < links_type_count; ++i) {
    MAD_ASSIGN_OR_RETURN(uint64_t link_count, links.GetVarint());
    if (link_count > kMaxSaneLength) {
      return Status::ParseError("link count out of range");
    }
    for (uint64_t j = 0; j < link_count; ++j) {
      MAD_ASSIGN_OR_RETURN(uint64_t first, links.GetVarint());
      MAD_ASSIGN_OR_RETURN(uint64_t second, links.GetVarint());
      MAD_RETURN_IF_ERROR(
          db->InsertLink(link_type_names[i], AtomId{first}, AtomId{second}));
    }
  }
  if (!links.exhausted()) {
    return Status::ParseError("trailing bytes in links section");
  }

  // Index definitions.
  MAD_ASSIGN_OR_RETURN(ByteReader indexes,
                       ExpectSection(&in, SectionTag::kIndexes));
  MAD_ASSIGN_OR_RETURN(uint64_t index_count, indexes.GetVarint());
  if (index_count > kMaxSaneLength) {
    return Status::ParseError("index count out of range");
  }
  for (uint64_t i = 0; i < index_count; ++i) {
    MAD_ASSIGN_OR_RETURN(std::string aname, indexes.GetString());
    MAD_ASSIGN_OR_RETURN(std::string attr, indexes.GetString());
    MAD_RETURN_IF_ERROR(db->CreateIndex(aname, attr));
  }
  if (!indexes.exhausted()) {
    return Status::ParseError("trailing bytes in indexes section");
  }

  MAD_ASSIGN_OR_RETURN(ByteReader end, ExpectSection(&in, SectionTag::kEnd));
  if (!end.exhausted()) {
    return Status::ParseError("end section must be empty");
  }
  if (!in.exhausted()) {
    return Status::ParseError("trailing bytes after end section");
  }

  // Restore the id counter: deleted atoms' ids must never be reused, even
  // when no surviving atom carries the highest id ever assigned.
  db->EnsureAtomIdAtLeast(last_atom_id);
  return db;
}

Result<std::unique_ptr<Database>> CloneDatabase(const Database& db) {
  MAD_ASSIGN_OR_RETURN(std::string bytes, SerializeDatabaseBinary(db));
  return DeserializeDatabaseBinary(bytes);
}

}  // namespace mad
