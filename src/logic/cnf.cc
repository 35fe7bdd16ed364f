#include "logic/cnf.h"

#include <algorithm>

#include "common/logging.h"

namespace gtpq {
namespace logic {

namespace {

// Sorts, dedupes, and detects complementary pairs. Returns false if the
// literal set is a tautology (clause) / contradiction (cube).
bool NormalizeLiterals(Clause* lits) {
  std::sort(lits->begin(), lits->end());
  lits->erase(std::unique(lits->begin(), lits->end()), lits->end());
  for (size_t i = 0; i + 1 < lits->size(); ++i) {
    if ((*lits)[i].var == (*lits)[i + 1].var) return false;
  }
  return true;
}

// Distributes an NNF formula into clause sets. `make_cnf` selects CNF
// (clauses) vs DNF (cubes); the two conversions are exact duals.
std::vector<Clause> Distribute(const FormulaRef& f, bool make_cnf) {
  switch (f->kind()) {
    case Kind::kConst: {
      // CNF of true = {} ; CNF of false = {{}}; DNF dual.
      const bool neutral = make_cnf ? f->value() : !f->value();
      if (neutral) return {};
      return {Clause{}};
    }
    case Kind::kVar:
      return {Clause{{f->var(), false}}};
    case Kind::kNot: {
      const auto& inner = f->children()[0];
      GTPQ_CHECK(inner->kind() == Kind::kVar)
          << "Distribute requires NNF input";
      return {Clause{{inner->var(), true}}};
    }
    case Kind::kAnd:
    case Kind::kOr: {
      // For CNF, AND concatenates clause lists and OR takes the
      // cross-product; for DNF the roles swap.
      const bool concatenate = (f->kind() == Kind::kAnd) == make_cnf;
      std::vector<Clause> acc;
      if (concatenate) {
        for (const auto& c : f->children()) {
          auto sub = Distribute(c, make_cnf);
          acc.insert(acc.end(), sub.begin(), sub.end());
        }
        return acc;
      }
      acc = {Clause{}};
      for (const auto& c : f->children()) {
        auto sub = Distribute(c, make_cnf);
        std::vector<Clause> next;
        next.reserve(acc.size() * sub.size());
        for (const auto& a : acc) {
          for (const auto& s : sub) {
            Clause merged = a;
            merged.insert(merged.end(), s.begin(), s.end());
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
  }
  return {};
}

int MaxVar(const std::vector<Clause>& clauses) {
  int mv = -1;
  for (const auto& c : clauses) {
    for (const auto& l : c) mv = std::max(mv, l.var);
  }
  return mv;
}

}  // namespace

Cnf ToCnfByDistribution(const FormulaRef& f) {
  Cnf out;
  auto raw = Distribute(ToNnf(f), /*make_cnf=*/true);
  for (auto& clause : raw) {
    if (NormalizeLiterals(&clause)) {
      out.clauses.push_back(std::move(clause));
    }
    // Tautological clauses are dropped.
  }
  out.max_var = MaxVar(out.clauses);
  return out;
}

Dnf ToDnfByDistribution(const FormulaRef& f) {
  Dnf out;
  auto raw = Distribute(ToNnf(f), /*make_cnf=*/false);
  for (auto& cube : raw) {
    if (NormalizeLiterals(&cube)) {
      out.cubes.push_back(std::move(cube));
    }
    // Contradictory cubes are dropped.
  }
  return out;
}

namespace {

// Returns the literal representing subformula f, emitting defining
// clauses into cnf. next_var supplies fresh auxiliary variables.
Literal TseitinEncode(const FormulaRef& f, Cnf* cnf, int* next_var) {
  switch (f->kind()) {
    case Kind::kConst: {
      // Encode constants via a fresh pinned variable.
      int v = (*next_var)++;
      cnf->clauses.push_back({Literal{v, !f->value()}});
      return Literal{v, false};
    }
    case Kind::kVar:
      return Literal{f->var(), false};
    case Kind::kNot: {
      Literal inner = TseitinEncode(f->children()[0], cnf, next_var);
      return Literal{inner.var, !inner.negated};
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<Literal> kids;
      kids.reserve(f->children().size());
      for (const auto& c : f->children()) {
        kids.push_back(TseitinEncode(c, cnf, next_var));
      }
      int v = (*next_var)++;
      const bool is_and = f->kind() == Kind::kAnd;
      // AND: (v -> ki) for all i, (k1 & .. & kn -> v).
      // OR:  (ki -> v) for all i, (v -> k1 | .. | kn).
      Clause big;
      big.reserve(kids.size() + 1);
      for (const auto& k : kids) {
        if (is_and) {
          cnf->clauses.push_back({Literal{v, true}, k});
          big.push_back(Literal{k.var, !k.negated});
        } else {
          cnf->clauses.push_back(
              {Literal{k.var, !k.negated}, Literal{v, false}});
          big.push_back(k);
        }
      }
      big.push_back(Literal{v, is_and ? false : true});
      cnf->clauses.push_back(std::move(big));
      return Literal{v, false};
    }
  }
  GTPQ_CHECK(false) << "unreachable";
  return Literal{0, false};
}

}  // namespace

Cnf TseitinTransform(const FormulaRef& f, int first_aux_var) {
  Cnf cnf;
  int next_var = first_aux_var;
  Literal root = TseitinEncode(f, &cnf, &next_var);
  cnf.clauses.push_back({root});
  cnf.max_var = next_var - 1;
  for (const auto& c : cnf.clauses) {
    for (const auto& l : c) cnf.max_var = std::max(cnf.max_var, l.var);
  }
  return cnf;
}

FormulaRef CnfToFormula(const Cnf& cnf) {
  std::vector<FormulaRef> clauses;
  clauses.reserve(cnf.clauses.size());
  for (const auto& c : cnf.clauses) {
    std::vector<FormulaRef> lits;
    lits.reserve(c.size());
    for (const auto& l : c) {
      FormulaRef v = Formula::Var(l.var);
      lits.push_back(l.negated ? Formula::Not(v) : v);
    }
    clauses.push_back(Formula::Or(std::move(lits)));
  }
  return Formula::And(std::move(clauses));
}

FormulaRef DnfToFormula(const Dnf& dnf) {
  std::vector<FormulaRef> cubes;
  cubes.reserve(dnf.cubes.size());
  for (const auto& c : dnf.cubes) {
    std::vector<FormulaRef> lits;
    lits.reserve(c.size());
    for (const auto& l : c) {
      FormulaRef v = Formula::Var(l.var);
      lits.push_back(l.negated ? Formula::Not(v) : v);
    }
    cubes.push_back(Formula::And(std::move(lits)));
  }
  return Formula::Or(std::move(cubes));
}

}  // namespace logic
}  // namespace gtpq
