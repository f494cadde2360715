#include "src/mso/formula.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace pebbletc {

MsoPtr MsoFormula::Make(Kind kind, SymbolId symbol, MsoVarId v1, MsoVarId v2,
                        MsoPtr l, MsoPtr r) {
  return MsoPtr(
      new MsoFormula(kind, symbol, v1, v2, std::move(l), std::move(r)));
}

MsoPtr MsoFormula::True() {
  static const MsoPtr kInstance =
      Make(Kind::kTrue, kNoSymbol, 0, 0, nullptr, nullptr);
  return kInstance;
}

MsoPtr MsoFormula::False() {
  static const MsoPtr kInstance =
      Make(Kind::kFalse, kNoSymbol, 0, 0, nullptr, nullptr);
  return kInstance;
}

MsoPtr MsoFormula::Label(SymbolId a, MsoVarId x) {
  return Make(Kind::kLabel, a, x, 0, nullptr, nullptr);
}
MsoPtr MsoFormula::Succ1(MsoVarId x, MsoVarId y) {
  return Make(Kind::kSucc1, kNoSymbol, x, y, nullptr, nullptr);
}
MsoPtr MsoFormula::Succ2(MsoVarId x, MsoVarId y) {
  return Make(Kind::kSucc2, kNoSymbol, x, y, nullptr, nullptr);
}
MsoPtr MsoFormula::Eq(MsoVarId x, MsoVarId y) {
  return Make(Kind::kEq, kNoSymbol, x, y, nullptr, nullptr);
}
MsoPtr MsoFormula::In(MsoVarId x, MsoVarId set) {
  return Make(Kind::kIn, kNoSymbol, x, set, nullptr, nullptr);
}
MsoPtr MsoFormula::Root(MsoVarId x) {
  return Make(Kind::kRoot, kNoSymbol, x, 0, nullptr, nullptr);
}
MsoPtr MsoFormula::Leaf(MsoVarId x) {
  return Make(Kind::kLeaf, kNoSymbol, x, 0, nullptr, nullptr);
}

MsoPtr MsoFormula::Not(MsoPtr f) {
  if (f->kind() == Kind::kTrue) return False();
  if (f->kind() == Kind::kFalse) return True();
  if (f->kind() == Kind::kNot) return f->left();
  return Make(Kind::kNot, kNoSymbol, 0, 0, std::move(f), nullptr);
}

MsoPtr MsoFormula::And(MsoPtr a, MsoPtr b) {
  if (a->kind() == Kind::kFalse || b->kind() == Kind::kFalse) return False();
  if (a->kind() == Kind::kTrue) return b;
  if (b->kind() == Kind::kTrue) return a;
  return Make(Kind::kAnd, kNoSymbol, 0, 0, std::move(a), std::move(b));
}

MsoPtr MsoFormula::Or(MsoPtr a, MsoPtr b) {
  if (a->kind() == Kind::kTrue || b->kind() == Kind::kTrue) return True();
  if (a->kind() == Kind::kFalse) return b;
  if (b->kind() == Kind::kFalse) return a;
  return Make(Kind::kOr, kNoSymbol, 0, 0, std::move(a), std::move(b));
}

MsoPtr MsoFormula::Iff(MsoPtr a, MsoPtr b) {
  return And(Implies(a, b), Implies(std::move(b), std::move(a)));
}

MsoPtr MsoFormula::AndAll(std::vector<MsoPtr> fs) {
  MsoPtr out = True();
  for (MsoPtr& f : fs) out = And(std::move(out), std::move(f));
  return out;
}

MsoPtr MsoFormula::OrAll(std::vector<MsoPtr> fs) {
  MsoPtr out = False();
  for (MsoPtr& f : fs) out = Or(std::move(out), std::move(f));
  return out;
}

MsoPtr MsoFormula::ExistsFo(MsoVarId x, MsoPtr body) {
  return Make(Kind::kExistsFo, kNoSymbol, x, 0, std::move(body), nullptr);
}

MsoPtr MsoFormula::ExistsSo(MsoVarId set, MsoPtr body) {
  return Make(Kind::kExistsSo, kNoSymbol, set, 0, std::move(body), nullptr);
}

namespace {

Status Record(MsoAnalysis* out, MsoVarId v, bool is_set) {
  if (v >= out->variables.size()) out->variables.resize(v + 1);
  MsoVariableInfo& info = out->variables[v];
  if (info.used && info.is_set != is_set) {
    return Status::InvalidArgument("variable " + std::to_string(v) +
                                   " used as both position and set");
  }
  info.used = true;
  info.is_set = is_set;
  return Status::OK();
}

// `bound` is the set of variables quantified on the path from the root of
// the formula to `f`; re-quantifying one of them would shadow it, which the
// compiler's shared-track scheme cannot represent. Quantifying the same
// variable in *parallel* branches (as the Theorem 4.7 translation does when
// it replicates φ^{(i)} per place transition) is fine.
Status Walk(const MsoPtr& f, MsoAnalysis* out, size_t depth,
            std::vector<MsoVarId>* bound) {
  out->num_nodes++;
  out->quantifier_depth = std::max(out->quantifier_depth, depth);
  using K = MsoFormula::Kind;
  switch (f->kind()) {
    case K::kTrue:
    case K::kFalse:
      return Status::OK();
    case K::kLabel:
    case K::kRoot:
    case K::kLeaf:
      return Record(out, f->var1(), false);
    case K::kSucc1:
    case K::kSucc2:
    case K::kEq:
      PEBBLETC_RETURN_IF_ERROR(Record(out, f->var1(), false));
      return Record(out, f->var2(), false);
    case K::kIn:
      PEBBLETC_RETURN_IF_ERROR(Record(out, f->var1(), false));
      return Record(out, f->var2(), true);
    case K::kNot:
      return Walk(f->left(), out, depth, bound);
    case K::kAnd:
    case K::kOr:
      PEBBLETC_RETURN_IF_ERROR(Walk(f->left(), out, depth, bound));
      return Walk(f->right(), out, depth, bound);
    case K::kExistsFo:
    case K::kExistsSo: {
      const bool is_set = f->kind() == K::kExistsSo;
      PEBBLETC_RETURN_IF_ERROR(Record(out, f->var1(), is_set));
      for (MsoVarId v : *bound) {
        if (v == f->var1()) {
          return Status::InvalidArgument(
              "variable " + std::to_string(f->var1()) +
              " re-quantified inside its own scope (shadowing)");
        }
      }
      out->variables[f->var1()].quantified = true;
      bound->push_back(f->var1());
      Status s = Walk(f->left(), out, depth + 1, bound);
      bound->pop_back();
      return s;
    }
  }
  return Status::Internal("unknown MSO node kind");
}

}  // namespace

Result<MsoAnalysis> AnalyzeMso(const MsoPtr& formula) {
  MsoAnalysis out;
  std::vector<MsoVarId> bound;
  PEBBLETC_RETURN_IF_ERROR(Walk(formula, &out, 0, &bound));
  return out;
}

namespace {

void Print(const MsoPtr& f, const RankedAlphabet* alphabet, std::string* out) {
  using K = MsoFormula::Kind;
  auto var = [](MsoVarId v, bool set) {
    std::string name(set ? "S" : "x");
    name += std::to_string(v);
    return name;
  };
  switch (f->kind()) {
    case K::kTrue:
      *out += "true";
      return;
    case K::kFalse:
      *out += "false";
      return;
    case K::kLabel:
      *out += "Label_";
      *out += alphabet != nullptr ? alphabet->Name(f->symbol())
                                  : std::to_string(f->symbol());
      *out += '(';
      *out += var(f->var1(), false);
      *out += ')';
      return;
    case K::kSucc1:
    case K::kSucc2:
      *out += f->kind() == K::kSucc1 ? "succ1(" : "succ2(";
      *out += var(f->var1(), false) + "," + var(f->var2(), false) + ")";
      return;
    case K::kEq:
      *out += var(f->var1(), false) + "=" + var(f->var2(), false);
      return;
    case K::kIn:
      *out += var(f->var1(), false) + "∈" + var(f->var2(), true);
      return;
    case K::kRoot:
      *out += "root(" + var(f->var1(), false) + ")";
      return;
    case K::kLeaf:
      *out += "leaf(" + var(f->var1(), false) + ")";
      return;
    case K::kNot:
      *out += "¬";
      Print(f->left(), alphabet, out);
      return;
    case K::kAnd:
    case K::kOr:
      *out += "(";
      Print(f->left(), alphabet, out);
      *out += f->kind() == K::kAnd ? " ∧ " : " ∨ ";
      Print(f->right(), alphabet, out);
      *out += ")";
      return;
    case K::kExistsFo:
      *out += "∃" + var(f->var1(), false) + ".";
      Print(f->left(), alphabet, out);
      return;
    case K::kExistsSo:
      *out += "∃" + var(f->var1(), true) + ".";
      Print(f->left(), alphabet, out);
      return;
  }
}

}  // namespace

std::string MsoString(const MsoPtr& formula, const RankedAlphabet* alphabet) {
  std::string out;
  Print(formula, alphabet, &out);
  return out;
}

}  // namespace pebbletc
