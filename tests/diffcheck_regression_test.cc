// Regression tests pinned by the differential oracle work (docs/DIFFCHECK.md).
//
// Each test locks in a boundary behaviour the ta_diffcheck harness probes:
// completion of symbols the automaton never mentions (the MSO track-extension
// shape), union state renumbering against degenerate operands, the exact
// UINT64_MAX saturation boundary of CountAcceptedTrees, and the enumeration
// order/cap contract of EnumerateAcceptedTrees. Shrunk reproducers emitted by
// `ta_diffcheck` belong in this file too; the harness prints bodies in
// exactly this idiom.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/check/diffcheck.h"
#include "src/check/reference_ops.h"
#include "src/ta/enumerate.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/tree/binary_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

RankedAlphabet TinyRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddLeaf("b0");
  (void)sigma.AddBinary("a2");
  (void)sigma.AddBinary("b2");
  return sigma;
}

// Every well-ranked tree over `sigma` with at most `max_nodes` nodes. Thin
// wrapper asserting the enumeration was not truncated.
std::vector<BinaryTree> SmallTrees(const RankedAlphabet& sigma,
                                   size_t max_nodes) {
  bool truncated = false;
  std::vector<BinaryTree> trees =
      AllTreesUpToNodes(sigma, max_nodes, 100000, &truncated);
  EXPECT_FALSE(truncated);
  return trees;
}

// --- Satellite (a): completion of symbols with no rules ---

// An automaton whose rule set mentions NO symbol at all: the complement must
// complete every symbol of the alphabet and accept every well-ranked tree.
// This is the extreme case of the MSO track-extension shape, where the
// cylindrified alphabet contains symbols the original automaton never saw.
TEST(DiffcheckRegressionTest, ComplementOfRulelessAutomatonIsUniversal) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/true);
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  a.accepting[a.AddState()] = true;  // accepting yet unreachable: L(a) = ∅
  (void)a.AddState();
  ASSERT_TRUE(IsEmptyNbta(a));

  auto comp = ComplementNbta(a, sigma);
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto refcomp = RefComplement(a, sigma);
  ASSERT_TRUE(refcomp.ok()) << refcomp.status().ToString();
  NbtaIndex comp_idx(*comp);
  for (const BinaryTree& t : SmallTrees(sigma, 7)) {
    EXPECT_TRUE(NbtaAccepts(comp_idx, t))
        << "complement rejects " << BinaryTermString(t, sigma);
    EXPECT_TRUE(RefAccepts(*refcomp, t))
        << "reference complement rejects " << BinaryTermString(t, sigma);
  }
}

// An automaton with rules over half the alphabet only: trees touching the
// ruleless symbols are rejected by `a`, so the complement must accept every
// one of them — the determinized transition table needs genuine (sink)
// entries for symbols absent from the rule list.
TEST(DiffcheckRegressionTest, ComplementCompletesUnusedTrackSymbols) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/true);
  SymbolId a0 = sigma.Find("a0");
  SymbolId a2 = sigma.Find("a2");
  SymbolId u0 = sigma.Find("u0");
  SymbolId u2 = sigma.Find("u2");

  // L(a) = all trees over {a0, a2} alone.
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId q = a.AddState();
  a.accepting[q] = true;
  a.AddLeafRule(a0, q);
  a.AddRule(a2, q, q, q);

  auto comp = ComplementNbta(a, sigma);
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  NbtaIndex comp_idx(*comp);

  auto uses_ruleless = [&](const BinaryTree& t) {
    for (NodeId n = 0; n < t.size(); ++n) {
      if (t.symbol(n) == u0 || t.symbol(n) == u2) return true;
    }
    return false;
  };
  size_t ruleless_trees = 0;
  for (const BinaryTree& t : SmallTrees(sigma, 5)) {
    EXPECT_EQ(NbtaAccepts(comp_idx, t), !RefAccepts(a, t))
        << "complement disagrees on " << BinaryTermString(t, sigma);
    if (uses_ruleless(t)) {
      ++ruleless_trees;
      EXPECT_TRUE(NbtaAccepts(comp_idx, t))
          << "tree over unused symbols must be in the complement: "
          << BinaryTermString(t, sigma);
    }
  }
  EXPECT_GT(ruleless_trees, 0u);  // the sweep really exercised the case
}

// --- Satellite (b): union state renumbering ---

// Union against a zero-state operand (not even a dead state: num_states = 0)
// must behave as the identity in both argument orders, with b's rule state
// ids shifted by exactly |Q_a| — which is 0 on the left-identity side.
TEST(DiffcheckRegressionTest, UnionWithZeroStateOperandIsIdentity) {
  RankedAlphabet sigma = TinyRanked();
  SymbolId a0 = sigma.Find("a0");
  SymbolId b0 = sigma.Find("b0");
  SymbolId a2 = sigma.Find("a2");

  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId q0 = a.AddState();
  StateId q1 = a.AddState();
  a.accepting[q1] = true;
  a.AddLeafRule(a0, q0);
  a.AddLeafRule(b0, q1);
  a.AddRule(a2, q0, q1, q1);

  Nbta zero;
  zero.num_symbols = a.num_symbols;
  ASSERT_EQ(zero.num_states, 0u);

  Nbta right = UnionNbta(a, zero);
  Nbta left = UnionNbta(zero, a);
  NbtaIndex a_idx(a), right_idx(right), left_idx(left);
  for (const BinaryTree& t : SmallTrees(sigma, 7)) {
    bool expect = NbtaAccepts(a_idx, t);
    EXPECT_EQ(NbtaAccepts(right_idx, t), expect)
        << "a ∪ ∅ diverged on " << BinaryTermString(t, sigma);
    EXPECT_EQ(NbtaAccepts(left_idx, t), expect)
        << "∅ ∪ a diverged on " << BinaryTermString(t, sigma);
  }
}

// Self-union: both operands' rules cite the same state-id range [0, n), so a
// renumbering slip (offsetting only some of {left, right, to}) would splice
// the copies together and change the language.
TEST(DiffcheckRegressionTest, SelfUnionPreservesLanguage) {
  RankedAlphabet sigma = TinyRanked();
  SymbolId a0 = sigma.Find("a0");
  SymbolId b0 = sigma.Find("b0");
  SymbolId a2 = sigma.Find("a2");
  SymbolId b2 = sigma.Find("b2");

  // L(a) = trees whose leaves are all a0 and whose root is a2 or a leaf;
  // state q0 = "good subtree", q1 = reject sink reached from b0.
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId q0 = a.AddState();
  StateId q1 = a.AddState();
  a.accepting[q0] = true;
  a.AddLeafRule(a0, q0);
  a.AddLeafRule(b0, q1);
  a.AddRule(a2, q0, q0, q0);
  a.AddRule(b2, q0, q0, q1);

  Nbta uni = UnionNbta(a, a);
  EXPECT_EQ(uni.num_states, 2 * a.num_states);
  Nbta refuni = RefUnion(a, a);
  NbtaIndex a_idx(a), uni_idx(uni), refuni_idx(refuni);
  for (const BinaryTree& t : SmallTrees(sigma, 7)) {
    bool expect = NbtaAccepts(a_idx, t);
    EXPECT_EQ(NbtaAccepts(uni_idx, t), expect)
        << "a ∪ a diverged on " << BinaryTermString(t, sigma);
    EXPECT_EQ(NbtaAccepts(refuni_idx, t), expect)
        << "reference union diverged on " << BinaryTermString(t, sigma);
  }
}

// Disjoint operands sharing the id range: a accepts only the leaf a0, b (with
// identically-numbered states meaning something else) only the leaf b0. The
// union must accept both and nothing that mixes the copies.
TEST(DiffcheckRegressionTest, UnionKeepsOperandCopiesDisjoint) {
  RankedAlphabet sigma = TinyRanked();
  SymbolId a0 = sigma.Find("a0");
  SymbolId b0 = sigma.Find("b0");
  SymbolId a2 = sigma.Find("a2");

  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId aq0 = a.AddState();
  StateId aq1 = a.AddState();
  a.accepting[aq1] = true;
  a.AddLeafRule(a0, aq1);
  a.AddLeafRule(b0, aq0);

  Nbta b;
  b.num_symbols = a.num_symbols;
  StateId bq0 = b.AddState();
  StateId bq1 = b.AddState();
  b.accepting[bq1] = true;
  b.AddLeafRule(b0, bq1);
  b.AddLeafRule(a0, bq0);
  // A rule whose unshifted ids would, in the union, point back into a's copy
  // and wrongly accept a2(a0, b0) via a's accepting state.
  b.AddRule(a2, bq0, bq1, bq0);

  Nbta uni = UnionNbta(a, b);
  NbtaIndex uni_idx(uni);
  Nbta refuni = RefUnion(a, b);
  for (const BinaryTree& t : SmallTrees(sigma, 3)) {
    bool expect = RefAccepts(a, t) || RefAccepts(b, t);
    EXPECT_EQ(NbtaAccepts(uni_idx, t), expect)
        << "union diverged on " << BinaryTermString(t, sigma);
    EXPECT_EQ(RefAccepts(refuni, t), expect)
        << "reference union diverged on " << BinaryTermString(t, sigma);
  }
  BinaryTree a0_leaf, b0_leaf;
  a0_leaf.SetRoot(a0_leaf.AddLeaf(a0));
  b0_leaf.SetRoot(b0_leaf.AddLeaf(b0));
  EXPECT_TRUE(NbtaAccepts(uni_idx, a0_leaf));
  EXPECT_TRUE(NbtaAccepts(uni_idx, b0_leaf));
}

// --- Satellite (c): CountAcceptedTrees saturation boundary ---

// Hits UINT64_MAX *exactly* (no clamping involved), then crosses it. The
// construction multiplies run counts across children:
//   count1[qA] = count1[qB] = 2^16   (65536 distinct leaf symbols each)
//   count1[qC] = count1[qD] = 1
//   count1[qE] = 2^16 + 1, count1[qF] = 2^16 - 1
//   f(qA,qB) → qX, f(qC,qD) → qX  ⇒ count3[qX] = 2^32 + 1
//   f(qE,qF) → qY                 ⇒ count3[qY] = 2^32 − 1
//   f(qX,qY) → qZ                 ⇒ count7[qZ] = 2^64 − 1 = UINT64_MAX, exact
//   f(qZ,qC) → qV, f(qC,qZ) → qV  ⇒ count9[qV] saturates (2·UINT64_MAX clamps)
// A wraparound bug in the multiply would report count7 ≈ 0 instead of max; a
// wraparound in the add would report count9 ≈ UINT64_MAX − 1... anything but
// the pinned ceiling.
TEST(DiffcheckRegressionTest, CountAcceptedTreesExactSaturationBoundary) {
  constexpr uint32_t kHalf = 1u << 16;  // 65536
  RankedAlphabet sigma;
  std::vector<SymbolId> leaves;
  leaves.reserve(kHalf + 1);
  for (uint32_t i = 0; i <= kHalf; ++i) {
    std::string name = "l";
    name += std::to_string(i);
    leaves.push_back(*sigma.AddLeaf(name));
  }
  SymbolId f = *sigma.AddBinary("f");

  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId qA = a.AddState(), qB = a.AddState(), qC = a.AddState();
  StateId qD = a.AddState(), qE = a.AddState(), qF = a.AddState();
  StateId qX = a.AddState(), qY = a.AddState(), qZ = a.AddState();
  StateId qV = a.AddState();
  for (uint32_t i = 0; i < kHalf; ++i) {
    a.AddLeafRule(leaves[i], qA);
    a.AddLeafRule(leaves[i], qB);
  }
  a.AddLeafRule(leaves[0], qC);
  a.AddLeafRule(leaves[0], qD);
  for (uint32_t i = 0; i <= kHalf; ++i) a.AddLeafRule(leaves[i], qE);
  for (uint32_t i = 0; i + 1 < kHalf; ++i) a.AddLeafRule(leaves[i], qF);
  a.AddRule(f, qA, qB, qX);
  a.AddRule(f, qC, qD, qX);
  a.AddRule(f, qE, qF, qY);
  a.AddRule(f, qX, qY, qZ);
  a.AddRule(f, qZ, qC, qV);
  a.AddRule(f, qC, qZ, qV);

  // Intermediate sanity: the two factors really are 2^32 ± 1.
  a.accepting.assign(a.num_states, false);
  a.accepting[qX] = true;
  EXPECT_EQ(CountAcceptedTrees(a, 3), (uint64_t{1} << 32) + 1);
  EXPECT_EQ(RefCountAcceptedTrees(a, 3), (uint64_t{1} << 32) + 1);
  a.accepting.assign(a.num_states, false);
  a.accepting[qY] = true;
  EXPECT_EQ(CountAcceptedTrees(a, 3), (uint64_t{1} << 32) - 1);

  // The boundary itself: exactly UINT64_MAX accepting runs, reached without
  // any clamp firing.
  a.accepting.assign(a.num_states, false);
  a.accepting[qZ] = true;
  EXPECT_EQ(CountAcceptedTrees(a, 7), UINT64_MAX);
  EXPECT_EQ(RefCountAcceptedTrees(a, 7), UINT64_MAX);
  EXPECT_EQ(CountAcceptedTrees(a, 1), 0u);
  EXPECT_EQ(CountAcceptedTrees(a, 3), 0u);
  EXPECT_EQ(CountAcceptedTrees(a, 5), 0u);
  EXPECT_EQ(CountAcceptedTrees(a, 9), 0u);
  // Even node counts are impossible for complete binary trees.
  EXPECT_EQ(CountAcceptedTrees(a, 8), 0u);

  // One step past the boundary: 2 × UINT64_MAX must clamp, not wrap.
  a.accepting.assign(a.num_states, false);
  a.accepting[qV] = true;
  EXPECT_EQ(CountAcceptedTrees(a, 9), UINT64_MAX);
  EXPECT_EQ(RefCountAcceptedTrees(a, 9), UINT64_MAX);
}

// --- Satellite (c): EnumerateAcceptedTrees boundaries ---

// A depth-0 language: only single-leaf trees are accepted (the binary rule
// lands in a dead state). Enumeration must produce exactly the two leaves for
// every max_nodes ≥ 1 and nothing for max_nodes = 0.
TEST(DiffcheckRegressionTest, EnumerateLeafOnlyLanguage) {
  RankedAlphabet sigma = TinyRanked();
  SymbolId a0 = sigma.Find("a0");
  SymbolId b0 = sigma.Find("b0");
  SymbolId a2 = sigma.Find("a2");

  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId acc = a.AddState();
  StateId dead = a.AddState();
  a.accepting[acc] = true;
  a.AddLeafRule(a0, acc);
  a.AddLeafRule(b0, acc);
  a.AddRule(a2, acc, acc, dead);

  EXPECT_TRUE(EnumerateAcceptedTrees(a, 0, 100).empty());
  EXPECT_TRUE(EnumerateAcceptedTrees(a, 7, 0).empty());
  for (size_t max_nodes : {size_t{1}, size_t{2}, size_t{7}}) {
    std::vector<BinaryTree> trees = EnumerateAcceptedTrees(a, max_nodes, 100);
    ASSERT_EQ(trees.size(), 2u) << "max_nodes = " << max_nodes;
    EXPECT_EQ(trees[0].size(), 1u);
    EXPECT_EQ(trees[1].size(), 1u);
    EXPECT_NE(trees[0].symbol(trees[0].root()),
              trees[1].symbol(trees[1].root()));
  }
  EXPECT_EQ(CountAcceptedTrees(a, 1), 2u);
  EXPECT_EQ(CountAcceptedTrees(a, 3), 0u);
}

// Enumeration order is deterministic, sorted by node count, exact against the
// brute-force filter, and truncation at max_count is a prefix of the full
// enumeration — never a different sample of it.
TEST(DiffcheckRegressionTest, EnumerateDeterministicOrderAndCapPrefix) {
  RankedAlphabet sigma = TinyRanked();
  Nbta a = UniversalNbta(sigma);

  std::vector<BinaryTree> full = EnumerateAcceptedTrees(a, 7, 100000);
  EXPECT_EQ(full.size(), SmallTrees(sigma, 7).size());
  for (size_t i = 0; i + 1 < full.size(); ++i) {
    EXPECT_LE(full[i].size(), full[i + 1].size()) << "not sorted at " << i;
  }
  std::vector<BinaryTree> again = EnumerateAcceptedTrees(a, 7, 100000);
  ASSERT_EQ(again.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(full[i] == again[i]) << "nondeterministic order at " << i;
  }
  for (size_t cap : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{20},
                     full.size(), full.size() + 10}) {
    std::vector<BinaryTree> capped = EnumerateAcceptedTrees(a, 7, cap);
    ASSERT_EQ(capped.size(), std::min(cap, full.size())) << "cap = " << cap;
    for (size_t i = 0; i < capped.size(); ++i) {
      EXPECT_TRUE(capped[i] == full[i])
          << "cap = " << cap << " is not a prefix at " << i;
    }
  }
}

}  // namespace
}  // namespace pebbletc
