#include "core/value.h"

#include <cmath>
#include <cstdio>
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
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return std::to_string(AsInt64());
    case DataType::kDouble: {
      // The bytes `std::ostream << double` writes at its default flags and
      // precision (%g, 6 digits), without building a stream per value.
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return std::string(buf, static_cast<size_t>(n));
    }
    case DataType::kString:
      return "'" + AsString() + "'";
    case DataType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "NULL";
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
