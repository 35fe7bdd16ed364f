#include "graph/attribute.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace gtpq {

int AttrValue::Compare(const AttrValue& other) const {
  // Type rank: numbers (0) < strings (1).
  const int rank_a = is_string() ? 1 : 0;
  const int rank_b = other.is_string() ? 1 : 0;
  if (rank_a != rank_b) return rank_a - rank_b;
  if (rank_a == 1) {
    return as_string().compare(other.as_string());
  }
  const double a = is_int() ? static_cast<double>(as_int()) : as_double();
  const double b =
      other.is_int() ? static_cast<double>(other.as_int()) : other.as_double();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

std::string AttrValue::ToString() const {
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    // Shortest form that reads back to the same double. A form with no
    // '.' and no exponent ("3", "-0") gets ".0", so ParseNumericAttrValue
    // reads it back as a double, not an int.
    const double v = as_double();
    char buf[32];
    std::string out(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    if (std::isfinite(v) && out.find_first_of(".e") == std::string::npos) {
      out += ".0";
    }
    return out;
  }
  return as_string();
}

bool ParseNumericAttrValue(std::string_view text, AttrValue* out) {
  if (text.find_first_of(".eE") != std::string_view::npos) {
    double real = 0;
    if (!ParseDouble(text, &real)) return false;
    *out = AttrValue(real);
    return true;
  }
  int64_t integer = 0;
  if (!ParseI64(text, &integer)) return false;
  *out = AttrValue(integer);
  return true;
}

void AttrTuple::Set(AttrId attr, AttrValue value) {
  for (auto& b : bindings_) {
    if (b.attr == attr) {
      b.value = std::move(value);
      return;
    }
  }
  bindings_.push_back(AttrBinding{attr, std::move(value)});
}

const AttrValue* AttrTuple::Get(AttrId attr) const {
  for (const auto& b : bindings_) {
    if (b.attr == attr) return &b.value;
  }
  return nullptr;
}

AttrNames::AttrNames() { label_attr_ = Intern("label"); }

AttrId AttrNames::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  AttrId id = static_cast<AttrId>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

AttrId AttrNames::Lookup(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? -1 : it->second;
}

const std::string& AttrNames::NameOf(AttrId id) const {
  GTPQ_CHECK(id >= 0 && static_cast<size_t>(id) < names_.size());
  return names_[static_cast<size_t>(id)];
}

}  // namespace gtpq
