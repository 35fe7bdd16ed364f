#include "logic/formula.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/logging.h"

namespace gtpq {
namespace logic {

FormulaRef MakeNode(Kind kind, bool value, int var,
                    std::vector<FormulaRef> children) {
  return FormulaRef(new Formula(kind, value, var, std::move(children)));
}

FormulaRef Formula::True() {
  static const FormulaRef kTrue = MakeNode(Kind::kConst, true, -1, {});
  return kTrue;
}

FormulaRef Formula::False() {
  static const FormulaRef kFalse = MakeNode(Kind::kConst, false, -1, {});
  return kFalse;
}

FormulaRef Formula::Var(int id) {
  GTPQ_CHECK(id >= 0) << "variable ids must be non-negative, got " << id;
  return MakeNode(Kind::kVar, false, id, {});
}

FormulaRef Formula::Not(const FormulaRef& f) {
  GTPQ_CHECK(f != nullptr);
  if (f->is_const()) return Const(!f->value());
  if (f->kind() == Kind::kNot) return f->children()[0];
  return MakeNode(Kind::kNot, false, -1, {f});
}

namespace {

// Shared n-ary builder for AND (dominant=false) and OR (dominant=true).
FormulaRef MakeNary(Kind kind, std::vector<FormulaRef> children) {
  const bool dominant = (kind == Kind::kOr);
  std::vector<FormulaRef> flat;
  flat.reserve(children.size());
  for (auto& c : children) {
    GTPQ_CHECK(c != nullptr);
    if (c->is_const()) {
      if (c->value() == dominant) return Formula::Const(dominant);
      continue;  // neutral element
    }
    if (c->kind() == kind) {
      for (const auto& gc : c->children()) flat.push_back(gc);
    } else {
      flat.push_back(c);
    }
  }
  // Deduplicate structurally equal children (small lists; quadratic OK).
  std::vector<FormulaRef> dedup;
  for (const auto& c : flat) {
    bool seen = false;
    for (const auto& d : dedup) {
      if (StructurallyEqual(c, d)) {
        seen = true;
        break;
      }
    }
    if (!seen) dedup.push_back(c);
  }
  if (dedup.empty()) return Formula::Const(!dominant);
  if (dedup.size() == 1) return dedup[0];
  return MakeNode(kind, false, -1, std::move(dedup));
}

}  // namespace

FormulaRef Formula::And(std::vector<FormulaRef> children) {
  return MakeNary(Kind::kAnd, std::move(children));
}

FormulaRef Formula::Or(std::vector<FormulaRef> children) {
  return MakeNary(Kind::kOr, std::move(children));
}

FormulaRef Formula::And(const FormulaRef& a, const FormulaRef& b) {
  return And(std::vector<FormulaRef>{a, b});
}

FormulaRef Formula::Or(const FormulaRef& a, const FormulaRef& b) {
  return Or(std::vector<FormulaRef>{a, b});
}

FormulaRef Formula::Implies(const FormulaRef& a, const FormulaRef& b) {
  return Or(Not(a), b);
}

FormulaRef Formula::Xor(const FormulaRef& a, const FormulaRef& b) {
  return Or(And(a, Not(b)), And(Not(a), b));
}

bool StructurallyEqual(const FormulaRef& a, const FormulaRef& b) {
  if (a.get() == b.get()) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case Kind::kConst:
      return a->value() == b->value();
    case Kind::kVar:
      return a->var() == b->var();
    case Kind::kNot:
      return StructurallyEqual(a->children()[0], b->children()[0]);
    case Kind::kAnd:
    case Kind::kOr: {
      if (a->children().size() != b->children().size()) return false;
      for (size_t i = 0; i < a->children().size(); ++i) {
        if (!StructurallyEqual(a->children()[i], b->children()[i])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool Evaluate(const FormulaRef& f,
              const std::function<bool(int)>& assignment) {
  switch (f->kind()) {
    case Kind::kConst:
      return f->value();
    case Kind::kVar:
      return assignment(f->var());
    case Kind::kNot:
      return !Evaluate(f->children()[0], assignment);
    case Kind::kAnd:
      for (const auto& c : f->children()) {
        if (!Evaluate(c, assignment)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& c : f->children()) {
        if (Evaluate(c, assignment)) return true;
      }
      return false;
  }
  return false;
}

bool Evaluate(const FormulaRef& f, const std::vector<char>& assignment) {
  return Evaluate(f, [&assignment](int v) {
    return static_cast<size_t>(v) < assignment.size() &&
           assignment[static_cast<size_t>(v)] != 0;
  });
}

namespace {
void CollectVarsInto(const FormulaRef& f, std::set<int>* out) {
  switch (f->kind()) {
    case Kind::kConst:
      return;
    case Kind::kVar:
      out->insert(f->var());
      return;
    default:
      for (const auto& c : f->children()) CollectVarsInto(c, out);
  }
}
}  // namespace

std::vector<int> CollectVars(const FormulaRef& f) {
  std::set<int> vars;
  CollectVarsInto(f, &vars);
  return std::vector<int>(vars.begin(), vars.end());
}

FormulaRef Substitute(const FormulaRef& f,
                      const std::unordered_map<int, FormulaRef>& map) {
  switch (f->kind()) {
    case Kind::kConst:
      return f;
    case Kind::kVar: {
      auto it = map.find(f->var());
      return it == map.end() ? f : it->second;
    }
    case Kind::kNot:
      return Formula::Not(Substitute(f->children()[0], map));
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<FormulaRef> kids;
      kids.reserve(f->children().size());
      for (const auto& c : f->children()) kids.push_back(Substitute(c, map));
      return f->kind() == Kind::kAnd ? Formula::And(std::move(kids))
                                     : Formula::Or(std::move(kids));
    }
  }
  return f;
}

FormulaRef SubstituteConst(const FormulaRef& f, int var, bool value) {
  std::unordered_map<int, FormulaRef> map;
  map.emplace(var, Formula::Const(value));
  return Substitute(f, map);
}

FormulaRef RenameVars(const FormulaRef& f,
                      const std::unordered_map<int, int>& renaming) {
  std::unordered_map<int, FormulaRef> map;
  map.reserve(renaming.size());
  for (const auto& [from, to] : renaming) {
    map.emplace(from, Formula::Var(to));
  }
  return Substitute(f, map);
}

namespace {
FormulaRef ToNnfImpl(const FormulaRef& f, bool negate) {
  switch (f->kind()) {
    case Kind::kConst:
      return Formula::Const(f->value() != negate);
    case Kind::kVar:
      return negate ? Formula::Not(f) : f;
    case Kind::kNot:
      return ToNnfImpl(f->children()[0], !negate);
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<FormulaRef> kids;
      kids.reserve(f->children().size());
      for (const auto& c : f->children()) {
        kids.push_back(ToNnfImpl(c, negate));
      }
      const bool is_and = (f->kind() == Kind::kAnd) != negate;
      return is_and ? Formula::And(std::move(kids))
                    : Formula::Or(std::move(kids));
    }
  }
  return f;
}

// Literal view: (var, negated) for a var or negated-var node.
bool AsLiteral(const FormulaRef& f, int* var, bool* negated) {
  if (f->kind() == Kind::kVar) {
    *var = f->var();
    *negated = false;
    return true;
  }
  if (f->kind() == Kind::kNot && f->children()[0]->kind() == Kind::kVar) {
    *var = f->children()[0]->var();
    *negated = true;
    return true;
  }
  return false;
}
}  // namespace

FormulaRef ToNnf(const FormulaRef& f) { return ToNnfImpl(f, false); }

FormulaRef Simplify(const FormulaRef& f) {
  switch (f->kind()) {
    case Kind::kConst:
    case Kind::kVar:
      return f;
    case Kind::kNot:
      return Formula::Not(Simplify(f->children()[0]));
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<FormulaRef> kids;
      kids.reserve(f->children().size());
      for (const auto& c : f->children()) kids.push_back(Simplify(c));
      FormulaRef rebuilt = f->kind() == Kind::kAnd
                               ? Formula::And(std::move(kids))
                               : Formula::Or(std::move(kids));
      if (rebuilt->kind() != Kind::kAnd && rebuilt->kind() != Kind::kOr) {
        return rebuilt;
      }
      // Complementary literal detection at one level:
      // (p & ... & !p) -> false,  (p | ... | !p) -> true.
      std::set<int> pos, neg;
      for (const auto& c : rebuilt->children()) {
        int v;
        bool n;
        if (AsLiteral(c, &v, &n)) {
          (n ? neg : pos).insert(v);
        }
      }
      for (int v : pos) {
        if (neg.count(v)) {
          return Formula::Const(rebuilt->kind() == Kind::kOr);
        }
      }
      // Absorption: a | (a & b) -> a ; a & (a | b) -> a.
      const Kind dual =
          rebuilt->kind() == Kind::kAnd ? Kind::kOr : Kind::kAnd;
      std::vector<FormulaRef> kept;
      for (const auto& c : rebuilt->children()) {
        bool absorbed = false;
        if (c->kind() == dual) {
          for (const auto& other : rebuilt->children()) {
            if (other.get() == c.get() || other->kind() == dual) continue;
            for (const auto& gc : c->children()) {
              if (StructurallyEqual(gc, other)) {
                absorbed = true;
                break;
              }
            }
            if (absorbed) break;
          }
        }
        if (!absorbed) kept.push_back(c);
      }
      return rebuilt->kind() == Kind::kAnd ? Formula::And(std::move(kept))
                                           : Formula::Or(std::move(kept));
    }
  }
  return f;
}

std::string ToString(const FormulaRef& f) {
  // Not "p" + to_string: GCC 12 flags that as -Wrestrict at -O2.
  return ToString(f,
                  [](int v) { return std::to_string(v).insert(0, 1, 'p'); });
}

namespace {
void ToStringImpl(const FormulaRef& f,
                  const std::function<std::string(int)>& namer,
                  Kind parent, std::string* out) {
  switch (f->kind()) {
    case Kind::kConst:
      out->append(f->value() ? "1" : "0");
      return;
    case Kind::kVar:
      out->append(namer(f->var()));
      return;
    case Kind::kNot:
      out->push_back('!');
      ToStringImpl(f->children()[0], namer, Kind::kNot, out);
      return;
    case Kind::kAnd:
    case Kind::kOr: {
      const bool parens = parent == Kind::kNot ||
                          (parent == Kind::kAnd && f->kind() == Kind::kOr) ||
                          (parent == Kind::kOr && f->kind() == Kind::kAnd);
      if (parens) out->push_back('(');
      const char* sep = f->kind() == Kind::kAnd ? " & " : " | ";
      for (size_t i = 0; i < f->children().size(); ++i) {
        if (i > 0) out->append(sep);
        ToStringImpl(f->children()[i], namer, f->kind(), out);
      }
      if (parens) out->push_back(')');
      return;
    }
  }
}
}  // namespace

std::string ToString(const FormulaRef& f,
                     const std::function<std::string(int)>& namer) {
  std::string out;
  ToStringImpl(f, namer, Kind::kConst, &out);
  return out;
}

namespace {

// Recursive-descent parser over the grammar in the header.
class Parser {
 public:
  Parser(const std::string& text,
         const std::function<int(const std::string&)>& intern)
      : text_(text), intern_(intern) {}

  Result<FormulaRef> Parse() {
    auto f = ParseOr();
    if (!f.ok()) return f;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing input at position " +
                                std::to_string(pos_) + " in '" + text_ + "'");
    }
    return f;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<FormulaRef> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    std::vector<FormulaRef> terms{*lhs};
    while (Consume('|')) {
      // Accept both '|' and '||'.
      Consume('|');
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      terms.push_back(*rhs);
    }
    return terms.size() == 1 ? terms[0] : Formula::Or(std::move(terms));
  }

  Result<FormulaRef> ParseAnd() {
    auto lhs = ParseFactor();
    if (!lhs.ok()) return lhs;
    std::vector<FormulaRef> terms{*lhs};
    while (Consume('&')) {
      Consume('&');
      auto rhs = ParseFactor();
      if (!rhs.ok()) return rhs;
      terms.push_back(*rhs);
    }
    return terms.size() == 1 ? terms[0] : Formula::And(std::move(terms));
  }

  Result<FormulaRef> ParseFactor() {
    SkipSpace();
    if (Consume('!') || Consume('~')) {
      auto f = ParseFactor();
      if (!f.ok()) return f;
      return Formula::Not(*f);
    }
    if (Consume('(')) {
      auto f = ParseOr();
      if (!f.ok()) return f;
      if (!Consume(')')) {
        return Status::ParseError("expected ')' in '" + text_ + "'");
      }
      return f;
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::ParseError("unexpected end of formula '" + text_ + "'");
    }
    char c = text_[pos_];
    if (c == '0' || c == '1') {
      // Constants only when standing alone (not an identifier head).
      if (pos_ + 1 == text_.size() ||
          !(std::isalnum(static_cast<unsigned char>(text_[pos_ + 1])) ||
            text_[pos_ + 1] == '_')) {
        ++pos_;
        return Formula::Const(c == '1');
      }
    }
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' in '" + text_ + "'");
    }
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return Formula::Var(intern_(text_.substr(start, pos_ - start)));
  }

  const std::string& text_;
  const std::function<int(const std::string&)>& intern_;
  size_t pos_ = 0;
};

}  // namespace

Result<FormulaRef> ParseFormula(
    const std::string& text,
    const std::function<int(const std::string&)>& intern) {
  return Parser(text, intern).Parse();
}

}  // namespace logic
}  // namespace gtpq
