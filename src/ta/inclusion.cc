#include "src/ta/inclusion.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/ta/nbta_index.h"

namespace pebbletc {
namespace {

constexpr uint32_t kNoPair = static_cast<uint32_t>(-1);

// An interned B-state set: sorted elements for subsumption tests and a
// bitset for O(1) membership during Post computation. `has_accepting` caches
// S ∩ F_B ≠ ∅ (the only property the acceptance test needs).
struct SetData {
  std::vector<StateId> elems;  // sorted, unique
  std::vector<bool> bits;
  bool has_accepting = false;
};

struct VecHash {
  size_t operator()(const std::vector<StateId>& v) const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (StateId q : v) {
      h ^= q;
      h *= 0x100000001b3ull;
    }
    return static_cast<size_t>(h);
  }
};

// A search pair (q, S) plus the provenance needed to replay its witness
// tree: a leaf symbol, or a binary symbol with two earlier pair ids. Arena
// entries are never removed (dominated pairs are only marked dead), so
// provenance chains of surviving pairs stay valid.
struct Pair {
  StateId q = 0;
  uint32_t set = 0;
  SymbolId symbol = 0;
  uint32_t left = kNoPair;
  uint32_t right = kNoPair;
  bool dead = false;
};

// s1 ⊆ s2 over sorted unique vectors.
bool SubsetOf(const std::vector<StateId>& s1, const std::vector<StateId>& s2) {
  if (s1.size() > s2.size()) return false;
  size_t j = 0;
  for (StateId q : s1) {
    while (j < s2.size() && s2[j] < q) ++j;
    if (j == s2.size() || s2[j] != q) return false;
    ++j;
  }
  return true;
}

class AntichainSearch {
 public:
  AntichainSearch(const NbtaIndex& a, const NbtaIndex& b,
                  const RankedAlphabet& alphabet, TaOpContext* ctx)
      : a_(a),
        b_(b),
        alphabet_(alphabet),
        ctx_(ctx),
        max_pairs_(TaBudgetMaxAntichainPairs(ctx)),
        kept_(a.num_states()),
        b_seen_(b.num_states(), false) {}

  Result<NbtaInclusionResult> Run() {
    PEBBLETC_RETURN_IF_ERROR(SeedLeaves());
    if (done_) return std::move(result_);
    std::vector<StateId> a_succs;
    while (head_ < worklist_.size()) {
      const uint32_t p = worklist_[head_++];
      if (pairs_[p].dead) continue;
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      processed_.push_back(p);
      // Combine p with every processed live pair (itself included), in both
      // child orders, under every binary symbol. The A-successor probe is
      // cheap (one SymbolLeft row scan), so it gates the Post_B computation.
      for (size_t i = 0; i < processed_.size(); ++i) {
        const uint32_t r = processed_[i];
        if (pairs_[r].dead) continue;
        PEBBLETC_RETURN_IF_ERROR(Combine(p, r, &a_succs));
        if (done_) return std::move(result_);
        if (r != p) {
          PEBBLETC_RETURN_IF_ERROR(Combine(r, p, &a_succs));
          if (done_) return std::move(result_);
        }
      }
    }
    // Frontier drained with no refuting pair: every reachable (q, S) is
    // dominated by an explored one, and domination preserves badness, so
    // none exists — inclusion holds. A positive verdict is only
    // trustworthy on an uninterrupted context (an A with no leaf rules
    // drains without ever checkpointing, so the sticky interrupt must be
    // consulted explicitly).
    PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx_));
    if (ctx_ != nullptr) ++ctx_->counters.inclusions;
    return NbtaInclusionResult{true, std::nullopt};
  }

 private:
  // Seeds one pair per (leaf symbol, distinct A-target): S is B's full
  // leaf-target set for the symbol — the exact B-reach of the one-node tree.
  Status SeedLeaves() {
    std::vector<bool> a_seen(a_.num_states(), false);
    std::vector<StateId> a_targets;
    for (SymbolId c : alphabet_.LeafSymbols()) {
      auto a_row = a_.LeafTargets(c);
      if (a_row.empty()) continue;
      std::vector<StateId> s;
      for (StateId q : b_.LeafTargets(c)) {
        if (!b_seen_[q]) {
          b_seen_[q] = true;
          s.push_back(q);
        }
      }
      for (StateId q : s) b_seen_[q] = false;
      std::sort(s.begin(), s.end());
      const uint32_t set_id = InternSet(std::move(s));
      a_targets.clear();
      for (StateId q : a_row) {
        if (!a_seen[q]) {
          a_seen[q] = true;
          a_targets.push_back(q);
        }
      }
      for (StateId q : a_targets) a_seen[q] = false;
      for (StateId q : a_targets) {
        PEBBLETC_RETURN_IF_ERROR(Offer(q, set_id, c, kNoPair, kNoPair));
        if (done_) return Status::OK();
      }
    }
    return Status::OK();
  }

  // Expands f(lp, rp) for every binary symbol f: A-successors of
  // (q_lp, q_rp) first; only when some exist is Post_B computed/interned.
  Status Combine(uint32_t lp, uint32_t rp, std::vector<StateId>* a_succs) {
    for (SymbolId f : alphabet_.BinarySymbols()) {
      const StateId ql = pairs_[lp].q;
      const StateId qr = pairs_[rp].q;
      auto row = a_.SymbolLeft(f, ql);
      TaCountRules(ctx_, row.size());
      a_succs->clear();
      for (const auto& rt : row) {
        if (rt.right == qr) a_succs->push_back(rt.to);
      }
      if (a_succs->empty()) continue;
      std::sort(a_succs->begin(), a_succs->end());
      a_succs->erase(std::unique(a_succs->begin(), a_succs->end()),
                     a_succs->end());
      const uint32_t set_id = PostSet(f, pairs_[lp].set, pairs_[rp].set);
      for (StateId q : *a_succs) {
        PEBBLETC_RETURN_IF_ERROR(Offer(q, set_id, f, lp, rp));
        if (done_) return Status::OK();
      }
    }
    return Status::OK();
  }

  // Post_B(f, S1, S2), interned and memoized per (f, S1, S2) — set ids are
  // canonical, so the memo never recomputes a repeated combination.
  uint32_t PostSet(SymbolId f, uint32_t s1, uint32_t s2) {
    if (post_memo_.size() <= f) post_memo_.resize(f + 1);
    const uint64_t key = (static_cast<uint64_t>(s1) << 32) | s2;
    auto it = post_memo_[f].find(key);
    if (it != post_memo_[f].end()) return it->second;
    std::vector<StateId> out;
    const SetData& d2 = sets_[s2];
    for (StateId q1 : sets_[s1].elems) {
      auto row = b_.SymbolLeft(f, q1);
      TaCountRules(ctx_, row.size());
      for (const auto& rt : row) {
        if (d2.bits[rt.right] && !b_seen_[rt.to]) {
          b_seen_[rt.to] = true;
          out.push_back(rt.to);
        }
      }
    }
    for (StateId q : out) b_seen_[q] = false;
    std::sort(out.begin(), out.end());
    const uint32_t id = InternSet(std::move(out));
    post_memo_[f].emplace(key, id);
    return id;
  }

  uint32_t InternSet(std::vector<StateId> elems) {
    auto it = set_index_.find(elems);
    if (it != set_index_.end()) return it->second;
    SetData d;
    d.bits.assign(b_.num_states(), false);
    for (StateId q : elems) d.bits[q] = true;
    d.has_accepting = b_.AnyAccepting(d.bits);
    d.elems = elems;
    const uint32_t id = static_cast<uint32_t>(sets_.size());
    sets_.push_back(std::move(d));
    set_index_.emplace(std::move(elems), id);
    return id;
  }

  // Offers a candidate pair (q, S): subsumption-prune or intern, test for
  // refutation, enqueue. Sets done_/result_ when the verdict is reached.
  Status Offer(StateId q, uint32_t set_id, SymbolId symbol, uint32_t lp,
               uint32_t rp) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
    const SetData& s = sets_[set_id];
    auto& anti = kept_[q];
    for (uint32_t k : anti) {
      if (pairs_[k].set == set_id ||
          SubsetOf(sets_[pairs_[k].set].elems, s.elems)) {
        if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_pruned;
        return Status::OK();
      }
    }
    // Retire kept pairs the newcomer dominates (S ⊆ their set): they are
    // redundant for both refutation and further expansion.
    anti.erase(std::remove_if(anti.begin(), anti.end(),
                              [&](uint32_t k) {
                                if (!SubsetOf(s.elems,
                                              sets_[pairs_[k].set].elems)) {
                                  return false;
                                }
                                pairs_[k].dead = true;
                                return true;
                              }),
               anti.end());
    PEBBLETC_RETURN_IF_ERROR(TaOpContext::CheckBudget(
        pairs_.size() + 1, max_pairs_, "antichain pairs"));
    const uint32_t id = static_cast<uint32_t>(pairs_.size());
    pairs_.push_back({q, set_id, symbol, lp, rp, false});
    if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_interned;
    if (a_.nbta().accepting[q] && !s.has_accepting) {
      PEBBLETC_ASSIGN_OR_RETURN(BinaryTree witness, BuildWitness(id));
      if (ctx_ != nullptr) ++ctx_->counters.inclusions;
      result_ = NbtaInclusionResult{false, std::move(witness)};
      done_ = true;
      return Status::OK();
    }
    anti.push_back(id);
    worklist_.push_back(id);
    return Status::OK();
  }

  // Replays the provenance chain of `bad` into a concrete tree. Iterative
  // (provenance chains can be deep) and checkpointed per node (shared
  // provenance is duplicated, so the tree can be much larger than the
  // arena).
  Result<BinaryTree> BuildWitness(uint32_t bad) const {
    struct Frame {
      uint32_t pair;
      int stage = 0;
      NodeId child[2] = {kNoNode, kNoNode};
    };
    BinaryTree t;
    NodeId root = kNoNode;
    std::vector<Frame> stack;
    stack.push_back({bad});
    auto deliver = [&](NodeId n) {
      stack.pop_back();
      if (stack.empty()) {
        root = n;
      } else {
        Frame& parent = stack.back();
        parent.child[parent.stage - 1] = n;
      }
    };
    while (!stack.empty()) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      Frame& f = stack.back();
      const Pair& pr = pairs_[f.pair];
      if (pr.left == kNoPair) {
        deliver(t.AddLeaf(pr.symbol));
      } else if (f.stage == 0) {
        f.stage = 1;
        stack.push_back({pr.left});
      } else if (f.stage == 1) {
        f.stage = 2;
        stack.push_back({pr.right});
      } else {
        deliver(t.AddInternal(pr.symbol, f.child[0], f.child[1]));
      }
    }
    t.SetRoot(root);
    return t;
  }

  const NbtaIndex& a_;
  const NbtaIndex& b_;
  const RankedAlphabet& alphabet_;
  TaOpContext* ctx_;
  const size_t max_pairs_;

  std::vector<Pair> pairs_;
  std::vector<SetData> sets_;
  std::unordered_map<std::vector<StateId>, uint32_t, VecHash> set_index_;
  // Per binary symbol: (s1 << 32 | s2) → interned Post set id.
  std::vector<std::unordered_map<uint64_t, uint32_t>> post_memo_;
  std::vector<std::vector<uint32_t>> kept_;  // live antichain per A-state
  std::vector<uint32_t> worklist_;           // FIFO; head_ is the cursor
  size_t head_ = 0;
  std::vector<uint32_t> processed_;
  std::vector<bool> b_seen_;  // scratch bitset over Q_B

  bool done_ = false;
  NbtaInclusionResult result_;
};

}  // namespace

Result<NbtaInclusionResult> NbtaIncludedIn(const NbtaIndex& a,
                                           const NbtaIndex& b,
                                           const RankedAlphabet& alphabet,
                                           TaOpContext* ctx) {
  PEBBLETC_CHECK(a.num_symbols() == b.num_symbols())
      << "NbtaIncludedIn requires automata over one alphabet";
  TaOpTimer timer(ctx);
  return AntichainSearch(a, b, alphabet, ctx).Run();
}

Result<NbtaInclusionResult> NbtaIncludedIn(const Nbta& a, const Nbta& b,
                                           const RankedAlphabet& alphabet,
                                           size_t max_pairs) {
  TaOpContext ctx;
  if (max_pairs != 0) ctx.budgets.max_antichain_pairs = max_pairs;
  NbtaIndex ia(a, &ctx);
  NbtaIndex ib(b, &ctx);
  return NbtaIncludedIn(ia, ib, alphabet, &ctx);
}

Nbta SingletonTreeNbta(const BinaryTree& tree, uint32_t num_symbols) {
  PEBBLETC_CHECK(!tree.empty()) << "SingletonTreeNbta on empty tree";
  Nbta a;
  a.num_symbols = num_symbols;
  // One state per node; state q_n accepts exactly the subtree at n, so the
  // accepting root state accepts exactly {tree}.
  for (NodeId n = 0; n < tree.size(); ++n) a.AddState();
  for (NodeId n = 0; n < tree.size(); ++n) {
    if (tree.IsLeaf(n)) {
      a.AddLeafRule(tree.symbol(n), n);
    } else {
      a.AddRule(tree.symbol(n), tree.left(n), tree.right(n), n);
    }
  }
  a.accepting[tree.root()] = true;
  return a;
}

}  // namespace pebbletc
