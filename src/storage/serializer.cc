#include "storage/serializer.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "storage/binary_codec.h"
#include "util/string_util.h"

namespace mad {

namespace {

constexpr char kMagic[] = "MADDB";
constexpr int kVersion = 1;

bool NeedsEscape(char c) {
  auto u = static_cast<unsigned char>(c);
  return c == '%' || std::isspace(u) || std::iscntrl(u) || u >= 0x7f;
}

std::string PercentEncode(const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (NeedsEscape(c)) {
      auto u = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> PercentDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) {
      return Status::ParseError("truncated percent escape");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    int hi = hex(text[i + 1]);
    int lo = hex(text[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("bad percent escape in '" + text + "'");
    }
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "N";
    case DataType::kInt64:
      return StrCat({"I", std::to_string(v.AsInt64())});
    case DataType::kDouble: {
      double d = v.AsDouble();
      // Non-finite values get explicit spellings — the default ostream
      // renderings ("nan", "-nan", "inf") vary across platforms and never
      // round-tripped reliably through stod.
      if (std::isnan(d)) return "Dnan";
      if (std::isinf(d)) return d > 0 ? "Dinf" : "D-inf";
      std::ostringstream os;
      os.precision(17);
      os << d;
      return StrCat({"D", os.str()});
    }
    case DataType::kString:
      return StrCat({"S", PercentEncode(v.AsString())});
    case DataType::kBool:
      return v.AsBool() ? "B1" : "B0";
  }
  return "N";
}

Result<Value> DecodeValue(const std::string& token) {
  if (token.empty()) return Status::ParseError("empty value token");
  std::string body = token.substr(1);
  switch (token[0]) {
    case 'N':
      if (!body.empty()) {
        return Status::ParseError("bad null token '" + token + "'");
      }
      return Value();
    case 'I':
      try {
        size_t consumed = 0;
        int64_t i = std::stoll(body, &consumed);
        if (consumed != body.size()) {
          return Status::ParseError("trailing garbage in integer token '" +
                                    token + "'");
        }
        return Value(i);
      } catch (...) {
        return Status::ParseError("bad integer token '" + token + "'");
      }
    case 'D': {
      // Exactly three non-finite spellings exist; stod's looser forms
      // ("infinity", "nan(char-seq)", hex floats overflowing to inf) are
      // rejected so every accepted token is one this library wrote.
      if (body == "nan") {
        return Value(std::numeric_limits<double>::quiet_NaN());
      }
      if (body == "inf") return Value(std::numeric_limits<double>::infinity());
      if (body == "-inf") {
        return Value(-std::numeric_limits<double>::infinity());
      }
      // strtod, not stod: stod throws out_of_range on subnormals, which are
      // legitimate values that must round-trip; strtod returns them
      // correctly rounded (and turns true overflow into inf, rejected
      // below).
      if (body.empty()) {
        return Status::ParseError("bad double token '" + token + "'");
      }
      char* end = nullptr;
      double d = std::strtod(body.c_str(), &end);
      if (end != body.c_str() + body.size()) {
        return Status::ParseError("trailing garbage in double token '" +
                                  token + "'");
      }
      if (!std::isfinite(d)) {
        return Status::ParseError("non-finite double token '" + token +
                                  "' (use Dnan, Dinf, or D-inf)");
      }
      return Value(d);
    }
    case 'S': {
      MAD_ASSIGN_OR_RETURN(std::string decoded, PercentDecode(body));
      return Value(std::move(decoded));
    }
    case 'B':
      if (body == "1") return Value(true);
      if (body == "0") return Value(false);
      return Status::ParseError("bad bool token '" + token + "'");
    default:
      return Status::ParseError("unknown value token '" + token + "'");
  }
}

}  // namespace

Status WriteDatabase(const Database& db, std::ostream& out) {
  out << kMagic << " " << kVersion << "\n";
  out << "DATABASE " << PercentEncode(db.name()) << "\n";

  for (const AtomType* at : db.atom_types()) {
    out << "ATOMTYPE " << PercentEncode(at->name()) << " "
        << at->description().attribute_count() << "\n";
    for (const AttributeDescription& attr : at->description().attributes()) {
      out << "ATTR " << PercentEncode(attr.name) << " "
          << DataTypeName(attr.type) << "\n";
    }
    for (const Atom& atom : at->occurrence().atoms()) {
      out << "ATOM " << atom.id.value;
      for (const Value& v : atom.values) out << " " << EncodeValue(v);
      out << "\n";
    }
  }
  for (const LinkType* lt : db.link_types()) {
    out << "LINKTYPE " << PercentEncode(lt->name()) << " "
        << PercentEncode(lt->first_atom_type()) << " "
        << PercentEncode(lt->second_atom_type()) << " "
        << LinkCardinalityName(lt->cardinality()) << "\n";
    for (const Link& link : lt->occurrence().links()) {
      out << "LINK " << link.first.value << " " << link.second.value << "\n";
    }
  }
  for (const AtomType* at : db.atom_types()) {
    // Index definitions are discovered per attribute.
    for (const AttributeDescription& attr : at->description().attributes()) {
      if (db.FindIndex(at->name(), attr.name) != nullptr) {
        out << "INDEX " << PercentEncode(at->name()) << " "
            << PercentEncode(attr.name) << "\n";
      }
    }
  }
  out << "END\n";
  if (!out) return Status::Internal("stream write failed");
  return Status::OK();
}

Result<std::unique_ptr<Database>> ReadDatabase(std::istream& in) {
  std::string line;
  size_t line_no = 0;
  auto fail = [&](const std::string& message) {
    return Status::ParseError("line " + std::to_string(line_no) + ": " +
                              message);
  };

  if (!std::getline(in, line)) return fail("empty input");
  ++line_no;
  {
    std::vector<std::string> header = Split(line, ' ');
    if (header.size() != 2 || header[0] != kMagic ||
        header[1] != std::to_string(kVersion)) {
      return fail("bad header '" + line + "'");
    }
  }

  std::unique_ptr<Database> db;
  std::string current_atom_type;
  std::string current_link_type;
  size_t pending_attrs = 0;
  Schema pending_schema;
  bool ended = false;

  auto flush_atom_type = [&]() -> Status {
    if (pending_attrs > 0) {
      return Status::ParseError("atom type '" + current_atom_type +
                                "' is missing attribute declarations");
    }
    return Status::OK();
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    if (ended) return fail("content after END");
    std::vector<std::string> fields = Split(std::string(stripped), ' ');
    const std::string& tag = fields[0];

    if (tag == "DATABASE") {
      if (db != nullptr || fields.size() != 2) return fail("bad DATABASE line");
      MAD_ASSIGN_OR_RETURN(std::string name, PercentDecode(fields[1]));
      db = std::make_unique<Database>(name);
      continue;
    }
    if (db == nullptr) return fail("expected DATABASE first");

    if (tag == "ATOMTYPE") {
      MAD_RETURN_IF_ERROR(flush_atom_type());
      if (fields.size() != 3) return fail("bad ATOMTYPE line");
      MAD_ASSIGN_OR_RETURN(current_atom_type, PercentDecode(fields[1]));
      try {
        pending_attrs = std::stoul(fields[2]);
      } catch (...) {
        return fail("bad attribute count");
      }
      pending_schema = Schema();
      if (pending_attrs == 0) {
        MAD_RETURN_IF_ERROR(db->DefineAtomType(current_atom_type, Schema()));
      }
      continue;
    }
    if (tag == "ATTR") {
      if (pending_attrs == 0) return fail("unexpected ATTR");
      if (fields.size() != 3) return fail("bad ATTR line");
      MAD_ASSIGN_OR_RETURN(std::string attr, PercentDecode(fields[1]));
      DataType type = DataTypeFromName(fields[2]);
      if (type == DataType::kNull) return fail("unknown type " + fields[2]);
      MAD_RETURN_IF_ERROR(pending_schema.AddAttribute(attr, type));
      if (--pending_attrs == 0) {
        MAD_RETURN_IF_ERROR(
            db->DefineAtomType(current_atom_type, std::move(pending_schema)));
      }
      continue;
    }
    if (tag == "ATOM") {
      MAD_RETURN_IF_ERROR(flush_atom_type());
      if (current_atom_type.empty()) return fail("ATOM before ATOMTYPE");
      if (fields.size() < 2) return fail("bad ATOM line");
      uint64_t id = 0;
      try {
        id = std::stoull(fields[1]);
      } catch (...) {
        return fail("bad atom id");
      }
      std::vector<Value> values;
      values.reserve(fields.size() - 2);
      for (size_t i = 2; i < fields.size(); ++i) {
        MAD_ASSIGN_OR_RETURN(Value v, DecodeValue(fields[i]));
        values.push_back(std::move(v));
      }
      MAD_RETURN_IF_ERROR(
          db->InsertAtomWithId(current_atom_type, AtomId{id}, std::move(values)));
      continue;
    }
    if (tag == "LINKTYPE") {
      MAD_RETURN_IF_ERROR(flush_atom_type());
      if (fields.size() != 4 && fields.size() != 5) {
        return fail("bad LINKTYPE line");
      }
      MAD_ASSIGN_OR_RETURN(current_link_type, PercentDecode(fields[1]));
      MAD_ASSIGN_OR_RETURN(std::string first, PercentDecode(fields[2]));
      MAD_ASSIGN_OR_RETURN(std::string second, PercentDecode(fields[3]));
      LinkCardinality cardinality = LinkCardinality::kManyToMany;
      if (fields.size() == 5 &&
          !ParseLinkCardinality(fields[4], &cardinality)) {
        return fail("bad cardinality '" + fields[4] + "'");
      }
      MAD_RETURN_IF_ERROR(
          db->DefineLinkType(current_link_type, first, second, cardinality));
      continue;
    }
    if (tag == "LINK") {
      if (current_link_type.empty()) return fail("LINK before LINKTYPE");
      if (fields.size() != 3) return fail("bad LINK line");
      uint64_t a = 0;
      uint64_t b = 0;
      try {
        a = std::stoull(fields[1]);
        b = std::stoull(fields[2]);
      } catch (...) {
        return fail("bad link ids");
      }
      MAD_RETURN_IF_ERROR(
          db->InsertLink(current_link_type, AtomId{a}, AtomId{b}));
      continue;
    }
    if (tag == "INDEX") {
      MAD_RETURN_IF_ERROR(flush_atom_type());
      if (fields.size() != 3) return fail("bad INDEX line");
      MAD_ASSIGN_OR_RETURN(std::string aname, PercentDecode(fields[1]));
      MAD_ASSIGN_OR_RETURN(std::string attr, PercentDecode(fields[2]));
      MAD_RETURN_IF_ERROR(db->CreateIndex(aname, attr));
      continue;
    }
    if (tag == "END") {
      MAD_RETURN_IF_ERROR(flush_atom_type());
      ended = true;
      continue;
    }
    return fail("unknown tag '" + tag + "'");
  }
  if (db == nullptr) return Status::ParseError("no DATABASE section");
  if (!ended) return Status::ParseError("missing END marker");
  return db;
}

Result<std::string> SerializeDatabase(const Database& db) {
  std::ostringstream out;
  MAD_RETURN_IF_ERROR(WriteDatabase(db, out));
  return out.str();
}

Result<std::unique_ptr<Database>> DeserializeDatabase(const std::string& text) {
  std::istringstream in(text);
  return ReadDatabase(in);
}

Result<std::unique_ptr<Database>> CloneDatabase(const Database& db) {
  // Round trip through the binary codec: considerably faster than the text
  // format (no number formatting/parsing) and preserves the atom-id
  // counter, which the text format does not carry.
  MAD_ASSIGN_OR_RETURN(std::string bytes, SerializeDatabaseBinary(db));
  return DeserializeDatabaseBinary(bytes);
}

}  // namespace mad
