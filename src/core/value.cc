#include "core/value.h"

#include <charconv>
#include <cmath>
#include <functional>

namespace mad {

namespace {

// Rank used to order values of incomparable types; int64 and double share a
// numeric comparison instead.
int TypeRank(DataType type) {
  switch (type) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;
    case DataType::kString:
      return 3;
  }
  return 0;
}

}  // namespace

DataType Value::type() const {
  switch (repr_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt64;
    case 2:
      return DataType::kDouble;
    case 3:
      return DataType::kString;
    case 4:
      return DataType::kBool;
  }
  return DataType::kNull;
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case DataType::kInt64:
      return static_cast<double>(AsInt64());
    case DataType::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument("value " + ToString() + " is not numeric");
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  char buf[32];
  switch (type()) {
    case DataType::kNull:
      *out += "NULL";
      return;
    case DataType::kInt64: {
      const auto r = std::to_chars(buf, buf + sizeof(buf), AsInt64());
      out->append(buf, r.ptr);
      return;
    }
    case DataType::kDouble: {
      // %g: general format at 6 significant digits, byte for byte.
      const auto r = std::to_chars(buf, buf + sizeof(buf), AsDouble(),
                                   std::chars_format::general, 6);
      out->append(buf, r.ptr);
      return;
    }
    case DataType::kString:
      *out += '\'';
      *out += AsString();
      *out += '\'';
      return;
    case DataType::kBool:
      *out += AsBool() ? "TRUE" : "FALSE";
      return;
  }
}

int Value::Compare(const Value& other) const {
  DataType a = type();
  DataType b = other.type();
  int rank_a = TypeRank(a);
  int rank_b = TypeRank(b);
  if (rank_a != rank_b) return rank_a < rank_b ? -1 : 1;

  switch (rank_a) {
    case 0:  // both null
      return 0;
    case 1: {  // bool
      bool x = AsBool();
      bool y = other.AsBool();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case 2: {  // numeric
      if (a == DataType::kInt64 && b == DataType::kInt64) {
        int64_t x = AsInt64();
        int64_t y = other.AsInt64();
        return x == y ? 0 : (x < y ? -1 : 1);
      }
      double x = a == DataType::kInt64 ? static_cast<double>(AsInt64())
                                       : AsDouble();
      double y = b == DataType::kInt64 ? static_cast<double>(other.AsInt64())
                                       : other.AsDouble();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case 3: {  // string
      int cmp = AsString().compare(other.AsString());
      return cmp == 0 ? 0 : (cmp < 0 ? -1 : 1);
    }
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kInt64: {
      // Hash integral doubles and int64s identically so == implies equal
      // hashes across the numeric types.
      return std::hash<double>{}(static_cast<double>(AsInt64()));
    }
    case DataType::kDouble:
      return std::hash<double>{}(AsDouble());
    case DataType::kString:
      return std::hash<std::string>{}(AsString());
    case DataType::kBool:
      return std::hash<bool>{}(AsBool());
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace mad
