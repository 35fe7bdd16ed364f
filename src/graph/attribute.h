#ifndef GTPQ_GRAPH_ATTRIBUTE_H_
#define GTPQ_GRAPH_ATTRIBUTE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/logging.h"

namespace gtpq {

/// Interned attribute-name identifier (e.g. "tag", "value", "label").
using AttrId = int32_t;

/// An attribute value: integer, floating point, or string. The data
/// model of Section 2 attaches a tuple (A1=a1, ..., An=an) to each node.
class AttrValue {
 public:
  AttrValue() : repr_(int64_t{0}) {}
  AttrValue(int64_t v) : repr_(v) {}          // NOLINT implicit
  AttrValue(int v) : repr_(int64_t{v}) {}     // NOLINT implicit
  AttrValue(double v) : repr_(v) {}           // NOLINT implicit
  AttrValue(std::string v) : repr_(std::move(v)) {}  // NOLINT implicit
  AttrValue(const char* v) : repr_(std::string(v)) {}  // NOLINT implicit

  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(repr_);
  }

  int64_t as_int() const { return std::get<int64_t>(repr_); }
  double as_double() const { return std::get<double>(repr_); }
  const std::string& as_string() const {
    return std::get<std::string>(repr_);
  }

  /// Three-way comparison across the numeric tower; strings compare
  /// lexicographically and never equal numbers (they compare by type
  /// rank: numbers < strings).
  int Compare(const AttrValue& other) const;

  bool operator==(const AttrValue& o) const { return Compare(o) == 0; }
  bool operator!=(const AttrValue& o) const { return Compare(o) != 0; }
  bool operator<(const AttrValue& o) const { return Compare(o) < 0; }
  bool operator<=(const AttrValue& o) const { return Compare(o) <= 0; }
  bool operator>(const AttrValue& o) const { return Compare(o) > 0; }
  bool operator>=(const AttrValue& o) const { return Compare(o) >= 0; }

  /// Ints in decimal; doubles in shortest round-trip form, always with
  /// a '.' or an exponent ("3.0", "1234567.5", "1e+300"), so
  /// ParseNumericAttrValue reads back the same value and type.
  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> repr_;
};

/// Reads an unquoted numeric token: a double when it holds '.', 'e' or
/// 'E' (as ToString renders one, e.g. "1e+06"), else an int64.
/// Returns false, leaving *out untouched, on a malformed or out-of-range
/// token. Graph files and query atoms both read numbers through this.
bool ParseNumericAttrValue(std::string_view text, AttrValue* out);

/// One attribute binding A = a.
struct AttrBinding {
  AttrId attr;
  AttrValue value;
};

/// The tuple f(v) attached to a data node: a small list of bindings.
class AttrTuple {
 public:
  AttrTuple() = default;

  void Set(AttrId attr, AttrValue value);
  /// Returns nullptr if the attribute is absent.
  const AttrValue* Get(AttrId attr) const;
  const std::vector<AttrBinding>& bindings() const { return bindings_; }
  bool empty() const { return bindings_.empty(); }

 private:
  std::vector<AttrBinding> bindings_;
};

/// Bidirectional attribute-name interner shared by a data graph and the
/// queries posed against it.
class AttrNames {
 public:
  AttrNames();

  /// Returns the id of `name`, interning it on first use.
  AttrId Intern(const std::string& name);
  /// Returns -1 if unknown.
  AttrId Lookup(const std::string& name) const;
  const std::string& NameOf(AttrId id) const;
  size_t size() const { return names_.size(); }

  /// The pre-interned id of the conventional "label" attribute used by
  /// the benchmark workloads.
  AttrId label_attr() const { return label_attr_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttrId> ids_;
  AttrId label_attr_;
};

}  // namespace gtpq

#endif  // GTPQ_GRAPH_ATTRIBUTE_H_
