// Tests for src/mso: formula analysis, brute-force evaluation, and the
// MSO→tree-automaton compiler, cross-validated on random formulas/trees.
// Includes the paper's warm-up examples from the Theorem 4.7 proof
// (descendant closure, and/or-circuit evaluation).

#include <gtest/gtest.h>

#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/mso/compile.h"
#include "src/mso/eval.h"
#include "src/mso/formula.h"
#include "src/mso/track_alphabet.h"
#include "src/ta/nbta.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

using F = MsoFormula;

RankedAlphabet TinyRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddLeaf("b0");
  (void)sigma.AddBinary("a2");
  (void)sigma.AddBinary("b2");
  return sigma;
}

TEST(TrackAlphabetTest, IdArithmetic) {
  RankedAlphabet base = TinyRanked();
  auto ext = std::move(TrackAlphabet::Make(base, 2)).ValueOrDie();
  EXPECT_EQ(ext.ranked().size(), 16u);
  for (SymbolId b = 0; b < base.size(); ++b) {
    for (uint32_t bits = 0; bits < 4; ++bits) {
      SymbolId id = ext.Id(b, bits);
      EXPECT_EQ(ext.BaseOf(id), b);
      EXPECT_EQ(ext.BitsOf(id), bits);
      EXPECT_EQ(ext.ranked().Rank(id), base.Rank(b));
    }
  }
  EXPECT_EQ(ext.ranked().Name(ext.Id(0, 1)), "a0#10");
  EXPECT_EQ(ext.ranked().Name(ext.Id(0, 2)), "a0#01");
}

TEST(TrackAlphabetTest, DropTrackMap) {
  RankedAlphabet base = TinyRanked();
  auto ext = std::move(TrackAlphabet::Make(base, 3)).ValueOrDie();
  std::vector<SymbolId> drop1 = ext.DropTrackMap(1);
  // bits b2 b1 b0 -> b2 b0
  SymbolId src = ext.Id(2, 0b101);
  EXPECT_EQ(drop1[src], 2u * 4 + 0b11);
  SymbolId src2 = ext.Id(1, 0b010);
  EXPECT_EQ(drop1[src2], 1u * 4 + 0b00);
}

// The track cap is a size limit, not a malformed input: it reports
// kResourceExhausted, like the extended-alphabet cap below it, so callers
// degrade instead of failing hard.
TEST(TrackAlphabetTest, TrackCapIsResourceExhaustion) {
  RankedAlphabet base = TinyRanked();
  Result<TrackAlphabet> over = TrackAlphabet::Make(base, 21);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.status().message().find("too many MSO tracks"),
            std::string::npos);
}

TEST(MsoAnalysisTest, DetectsKindConflicts) {
  // x used both as position (Label) and set (In's second arg).
  MsoPtr bad = F::And(F::Label(0, /*x=*/1), F::In(/*x=*/2, /*set=*/1));
  EXPECT_FALSE(AnalyzeMso(bad).ok());
}

TEST(MsoAnalysisTest, RejectsShadowing) {
  MsoPtr bad = F::ExistsFo(1, F::ExistsFo(1, F::Leaf(1)));
  EXPECT_FALSE(AnalyzeMso(bad).ok());
  // Parallel (non-nested) reuse is fine.
  MsoPtr good = F::And(F::ExistsFo(1, F::Leaf(1)), F::ExistsFo(1, F::Root(1)));
  EXPECT_TRUE(AnalyzeMso(good).ok());
}

TEST(MsoCompileTest, RejectsOpenFormulas) {
  RankedAlphabet sigma = TinyRanked();
  EXPECT_FALSE(CompileMsoSentence(F::Leaf(0), sigma).ok());
}

TEST(MsoCompileTest, SomeNodeLabeled) {
  RankedAlphabet sigma = TinyRanked();
  // ∃x Label_b0(x)
  MsoPtr f = F::ExistsFo(0, F::Label(sigma.Find("b0"), 0));
  auto nbta = std::move(CompileMsoSentence(f, sigma)).ValueOrDie();
  auto t1 = std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie();
  auto t2 = std::move(ParseBinaryTerm("a2(a0,a0)", sigma)).ValueOrDie();
  EXPECT_TRUE(nbta.Accepts(t1));
  EXPECT_FALSE(nbta.Accepts(t2));
}

TEST(MsoCompileTest, EveryLeafLabeled) {
  RankedAlphabet sigma = TinyRanked();
  // ∀x (Leaf(x) ⇒ Label_a0(x))
  MsoPtr f = F::ForallFo(
      0, F::Implies(F::Leaf(0), F::Label(sigma.Find("a0"), 0)));
  auto nbta = std::move(CompileMsoSentence(f, sigma)).ValueOrDie();
  EXPECT_TRUE(nbta.Accepts(
      std::move(ParseBinaryTerm("b2(a0,a2(a0,a0))", sigma)).ValueOrDie()));
  EXPECT_FALSE(nbta.Accepts(
      std::move(ParseBinaryTerm("b2(a0,a2(b0,a0))", sigma)).ValueOrDie()));
}

TEST(MsoCompileTest, RootAndSucc) {
  RankedAlphabet sigma = TinyRanked();
  // "the root's left child is labeled b0":
  // ∃x∃y (Root(x) ∧ succ1(x,y) ∧ Label_b0(y))
  MsoPtr f = F::ExistsFo(
      0, F::ExistsFo(1, F::AndAll({F::Root(0), F::Succ1(0, 1),
                                   F::Label(sigma.Find("b0"), 1)})));
  auto nbta = std::move(CompileMsoSentence(f, sigma)).ValueOrDie();
  EXPECT_TRUE(nbta.Accepts(
      std::move(ParseBinaryTerm("a2(b0,a0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(nbta.Accepts(
      std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(nbta.Accepts(
      std::move(ParseBinaryTerm("b0", sigma)).ValueOrDie()));
}

// The paper's warm-up: the descendant relation via universally quantified
// closed sets. descendant(x,y) = ∀S (x∈S ∧ closed(S) ⇒ y∈S), where
// closed(S) = ∀u∀v ((u∈S ∧ succ_i(u,v)) ⇒ v∈S).
MsoPtr Descendant(MsoVarId x, MsoVarId y, MsoVarId s, MsoVarId u, MsoVarId v) {
  MsoPtr closed = F::ForallFo(
      u, F::ForallFo(
             v, F::And(F::Implies(F::And(F::In(u, s), F::Succ1(u, v)),
                                  F::In(v, s)),
                       F::Implies(F::And(F::In(u, s), F::Succ2(u, v)),
                                  F::In(v, s)))));
  return F::ForallSo(
      s, F::Implies(F::And(F::In(x, s), closed), F::In(y, s)));
}

TEST(MsoCompileTest, PaperDescendantFormula) {
  RankedAlphabet sigma = TinyRanked();
  // "some b2 node has an a0 descendant":
  // ∃x∃y (Label_b2(x) ∧ Label_a0(y) ∧ descendant(x,y))
  MsoPtr f = F::ExistsFo(
      0,
      F::ExistsFo(1, F::AndAll({F::Label(sigma.Find("b2"), 0),
                                F::Label(sigma.Find("a0"), 1),
                                Descendant(0, 1, 2, 3, 4)})));
  auto nbta = std::move(CompileMsoSentence(f, sigma)).ValueOrDie();
  EXPECT_TRUE(nbta.Accepts(
      std::move(ParseBinaryTerm("a2(b2(b0,a0),b0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(nbta.Accepts(
      std::move(ParseBinaryTerm("a2(b2(b0,b0),a0)", sigma)).ValueOrDie()));
  // x is a descendant of itself (reflexive closure via x∈S).
  EXPECT_FALSE(nbta.Accepts(
      std::move(ParseBinaryTerm("b0", sigma)).ValueOrDie()));
}

// The paper's second warm-up: and/or trees that evaluate to 1. Alphabet:
// leaves 0/1, internal and/or. φ = ∀S ((∀x R_1(x)⇒S(x)) ∧ reverse-closed(S))
// ⇒ S(root).
TEST(MsoCompileTest, PaperAndOrCircuitFormula) {
  RankedAlphabet sigma;
  SymbolId zero = std::move(sigma.AddLeaf("0")).ValueOrDie();
  SymbolId one = std::move(sigma.AddLeaf("1")).ValueOrDie();
  SymbolId band = std::move(sigma.AddBinary("and")).ValueOrDie();
  SymbolId bor = std::move(sigma.AddBinary("or")).ValueOrDie();
  (void)zero;

  const MsoVarId s = 0, x = 1, y = 2, z = 3, r = 4;
  MsoPtr ones_in =
      F::ForallFo(x, F::Implies(F::Label(one, x), F::In(x, s)));
  MsoPtr or_closed = F::ForallFo(
      x, F::ForallFo(
             y, F::Implies(F::AndAll({F::Label(bor, x),
                                      F::Or(F::Succ1(x, y), F::Succ2(x, y)),
                                      F::In(y, s)}),
                           F::In(x, s))));
  MsoPtr and_closed = F::ForallFo(
      x,
      F::ForallFo(
          y, F::ForallFo(
                 z, F::Implies(F::AndAll({F::Label(band, x), F::Succ1(x, y),
                                          F::Succ2(x, z), F::In(y, s),
                                          F::In(z, s)}),
                               F::In(x, s)))));
  MsoPtr s_root = F::ExistsFo(r, F::And(F::Root(r), F::In(r, s)));
  MsoPtr phi = F::ForallSo(
      s,
      F::Implies(F::AndAll({ones_in, or_closed, and_closed}), s_root));

  auto nbta = std::move(CompileMsoSentence(phi, sigma)).ValueOrDie();
  struct Case {
    const char* term;
    bool want;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"1", true},
           {"0", false},
           {"and(1,1)", true},
           {"and(1,0)", false},
           {"or(0,1)", true},
           {"or(0,0)", false},
           {"and(or(0,1),or(1,0))", true},
           {"or(and(1,0),and(0,1))", false},
           {"or(and(1,1),0)", true},
           {"and(or(1,1),and(0,1))", false}}) {
    auto t = std::move(ParseBinaryTerm(c.term, sigma)).ValueOrDie();
    EXPECT_EQ(nbta.Accepts(t), c.want) << c.term;
  }
}

TEST(MsoSatisfiabilityTest, Basic) {
  RankedAlphabet sigma = TinyRanked();
  // Satisfiable: some leaf.
  auto sat = MsoSatisfiable(F::ExistsFo(0, F::Leaf(0)), sigma);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(*sat);
  // Unsatisfiable: a node that is its own left child.
  auto unsat = MsoSatisfiable(F::ExistsFo(0, F::Succ1(0, 0)), sigma);
  ASSERT_TRUE(unsat.ok());
  EXPECT_FALSE(*unsat);
  // Unsatisfiable: the root is a leaf and not a leaf.
  auto unsat2 = MsoSatisfiable(
      F::ExistsFo(0, F::And(F::Leaf(0), F::Not(F::Leaf(0)))), sigma);
  ASSERT_TRUE(unsat2.ok());
  EXPECT_FALSE(*unsat2);
}

// --- brute force vs compiler, random property test ---

// Generates a random sentence using FO vars {0,1} and SO var {2}.
MsoPtr RandomAtom(Rng& rng, const RankedAlphabet& sigma,
                  const std::vector<MsoVarId>& fo,
                  const std::vector<MsoVarId>& so) {
  if (fo.empty()) return rng.NextBool() ? F::True() : F::False();
  MsoVarId x = fo[rng.NextBelow(fo.size())];
  switch (rng.NextBelow(so.empty() ? 5 : 6)) {
    case 0:
      return F::Label(static_cast<SymbolId>(rng.NextBelow(sigma.size())), x);
    case 1:
      return F::Leaf(x);
    case 2:
      return F::Root(x);
    case 3:
      return F::Eq(x, fo[rng.NextBelow(fo.size())]);
    case 4: {
      MsoVarId y = fo[rng.NextBelow(fo.size())];
      return rng.NextBool() ? F::Succ1(x, y) : F::Succ2(x, y);
    }
    default:
      return F::In(x, so[rng.NextBelow(so.size())]);
  }
}

MsoPtr RandomFormula(Rng& rng, const RankedAlphabet& sigma, int depth,
                     std::vector<MsoVarId> fo, std::vector<MsoVarId> so,
                     MsoVarId* next_var) {
  if (depth == 0 || rng.NextBool(0.3)) {
    return RandomAtom(rng, sigma, fo, so);
  }
  switch (rng.NextBelow(5)) {
    case 0:
      return F::Not(RandomFormula(rng, sigma, depth - 1, fo, so, next_var));
    case 1:
      return F::And(RandomFormula(rng, sigma, depth - 1, fo, so, next_var),
                    RandomFormula(rng, sigma, depth - 1, fo, so, next_var));
    case 2:
      return F::Or(RandomFormula(rng, sigma, depth - 1, fo, so, next_var),
                   RandomFormula(rng, sigma, depth - 1, fo, so, next_var));
    case 3: {
      MsoVarId v = (*next_var)++;  // globally unique: no kind clashes
      fo.push_back(v);
      MsoPtr body = RandomFormula(rng, sigma, depth - 1, fo, so, next_var);
      return F::ExistsFo(v, std::move(body));
    }
    default: {
      MsoVarId v = (*next_var)++;
      so.push_back(v);
      MsoPtr body = RandomFormula(rng, sigma, depth - 1, fo, so, next_var);
      return F::ExistsSo(v, std::move(body));
    }
  }
}

// Closes a formula by existentially quantifying stray free variables — the
// generator never creates them (atoms only use bound vars), so this is just
// the top-level call with empty contexts.
class MsoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MsoPropertyTest, CompilerAgreesWithBruteForce) {
  Rng rng(GetParam());
  RankedAlphabet sigma = TinyRanked();
  MsoVarId next_var = 0;
  MsoPtr f = RandomFormula(rng, sigma, 3, {}, {}, &next_var);
  auto analysis = AnalyzeMso(f);
  ASSERT_TRUE(analysis.ok());
  auto nbta_or = CompileMsoSentence(f, sigma);
  ASSERT_TRUE(nbta_or.ok()) << nbta_or.status().ToString();
  for (int i = 0; i < 12; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(4));
    auto want = EvalMsoBruteForce(f, t);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(nbta_or->Accepts(t), *want)
        << MsoString(f, &sigma) << " on " << BinaryTermString(t, sigma);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsoPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace pebbletc
