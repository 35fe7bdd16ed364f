#ifndef GTPQ_LOGIC_CNF_H_
#define GTPQ_LOGIC_CNF_H_

#include <cstdint>
#include <vector>

#include "logic/formula.h"

namespace gtpq {
namespace logic {

/// A literal: positive (var, false) or negated (var, true).
struct Literal {
  int var;
  bool negated;
  bool operator==(const Literal& o) const {
    return var == o.var && negated == o.negated;
  }
  bool operator<(const Literal& o) const {
    return var != o.var ? var < o.var : negated < o.negated;
  }
};

/// A clause is a disjunction of literals; a cube a conjunction.
using Clause = std::vector<Literal>;

/// Conjunctive normal form: AND of clauses. `always_false` marks the
/// degenerate empty-clause case; an empty clause list means "true".
struct Cnf {
  std::vector<Clause> clauses;
  int max_var = -1;

  size_t NumClauses() const { return clauses.size(); }
};

/// Disjunctive normal form: OR of cubes. An empty cube list means
/// "false"; an empty cube means "true".
struct Dnf {
  std::vector<Clause> cubes;
};

/// Textbook distribution-based CNF conversion (worst-case exponential —
/// this is exactly the cost the paper attributes to OR-block construction
/// in AND/OR-twigs / B-twigs; exercised by the ablation bench).
Cnf ToCnfByDistribution(const FormulaRef& f);

/// Distribution-based DNF conversion. Used by the decompose-and-merge
/// baseline to expand a GTPQ into conjunctive TPQs. Cubes containing a
/// complementary pair are dropped.
Dnf ToDnfByDistribution(const FormulaRef& f);

/// Tseitin transformation: equisatisfiable CNF, linear size. Fresh
/// variables are allocated starting at `first_aux_var`, which must exceed
/// every variable in f. Returns the CNF plus the root literal which is
/// asserted as a unit clause.
Cnf TseitinTransform(const FormulaRef& f, int first_aux_var);

/// Rebuilds a Formula from a CNF/DNF (for round-trip testing).
FormulaRef CnfToFormula(const Cnf& cnf);
FormulaRef DnfToFormula(const Dnf& dnf);

}  // namespace logic
}  // namespace gtpq

#endif  // GTPQ_LOGIC_CNF_H_
