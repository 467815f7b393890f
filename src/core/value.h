#ifndef MAD_CORE_VALUE_H_
#define MAD_CORE_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

#include "core/data_type.h"
#include "util/result.h"

namespace mad {

/// A dynamically typed attribute value. Values are small value types: cheap
/// to copy (except long strings), totally ordered within a type, hashable.
///
/// Nulls: the paper does not define null semantics, so madlib uses a simple
/// convention — null equals null, null sorts before every non-null value,
/// and nulls are only produced explicitly (never by the engine).
class Value {
 public:
  /// Constructs the null value.
  Value() : repr_(std::monostate{}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  explicit Value(const char* v) : repr_(std::string(v)) {}
  explicit Value(bool v) : repr_(v) {}

  static Value Null() { return Value(); }

  DataType type() const;
  bool is_null() const { return type() == DataType::kNull; }

  /// Typed accessors; the caller must check `type()` first (asserts in
  /// debug builds on mismatch).
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  bool AsBool() const { return std::get<bool>(repr_); }

  /// Numeric view: int64 and double both convert; anything else fails.
  Result<double> ToNumeric() const;

  /// Display form: 1000, 3.5, 'SP', TRUE, NULL. Doubles print as
  /// `printf("%g")` does: 6 significant digits, shortest of fixed and
  /// scientific.
  std::string ToString() const;
  /// Appends the display form to `out`; ToString and the printers share it.
  void AppendTo(std::string* out) const;

  /// Total order across values. Values of different non-null types compare
  /// by type rank (int64 and double compare numerically with each other);
  /// null sorts first.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Hash consistent with operator== (numeric int64/double that compare
  /// equal hash equally).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> repr_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

}  // namespace mad

#endif  // MAD_CORE_VALUE_H_
