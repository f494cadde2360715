// Tests for the parallel execution layer (docs/PARALLEL.md):
// bit-identical products and typechecking results at every num_threads,
// cancellation/deadline drains of the product construction, and sharded
// diffcheck sweep equivalence.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/alphabet/alphabet.h"
#include "src/check/diffcheck.h"
#include "src/common/rng.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"

namespace pebbletc {
namespace {

// ------------------------------------------ thread-count invariance -------

// Dense random automata: ~200 binary rules each, so the product has a rich
// reachable pair space.
Nbta DenseAutomaton(const RankedAlphabet& sigma, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions o;
  o.num_states = 12;
  o.rule_density = 0.7;
  o.leaf_density = 0.6;
  o.accepting_density = 0.4;
  return RandomNbta(sigma, rng, o);
}

// Every counter that measures work; op_nanos is wall time and may differ.
void ExpectSameWork(const TaOpCounters& x, const TaOpCounters& y) {
  EXPECT_EQ(x.states_materialized, y.states_materialized);
  EXPECT_EQ(x.rules_scanned, y.rules_scanned);
  EXPECT_EQ(x.determinizations, y.determinizations);
  EXPECT_EQ(x.det_pairs_expanded, y.det_pairs_expanded);
  EXPECT_EQ(x.det_subsets_interned, y.det_subsets_interned);
  EXPECT_EQ(x.complementations, y.complementations);
  EXPECT_EQ(x.inclusions, y.inclusions);
  EXPECT_EQ(x.incl_pairs_interned, y.incl_pairs_interned);
  EXPECT_EQ(x.incl_pairs_pruned, y.incl_pairs_pruned);
  EXPECT_EQ(x.intersections, y.intersections);
  EXPECT_EQ(x.trims, y.trims);
  EXPECT_EQ(x.minimizations, y.minimizations);
  EXPECT_EQ(x.indexes_built, y.indexes_built);
  EXPECT_EQ(x.checkpoints, y.checkpoints);
  EXPECT_EQ(x.memo_hits, y.memo_hits);
  EXPECT_EQ(x.memo_misses, y.memo_misses);
  EXPECT_EQ(x.memo_evictions, y.memo_evictions);
  EXPECT_EQ(x.memo_bytes, y.memo_bytes);
  EXPECT_EQ(x.membership_fast_hits, y.membership_fast_hits);
  EXPECT_EQ(x.membership_fallbacks, y.membership_fallbacks);
}

TEST(ThreadInvarianceTest, IntersectBitIdenticalAcrossThreadCounts) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Nbta a = DenseAutomaton(sigma, 0x5eed0000 + seed);
    const Nbta b = DenseAutomaton(sigma, 0xb0b00000 + seed);
    TaOpContext ref_ctx;
    ref_ctx.budgets.num_threads = 1;
    const Nbta ref = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ref_ctx);
    ASSERT_FALSE(ref_ctx.interrupted());
    ASSERT_TRUE(ref.Validate(sigma).ok());
    for (uint32_t threads : {0u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                   std::to_string(threads));
      TaOpContext ctx;
      ctx.budgets.num_threads = threads;
      const Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
      EXPECT_EQ(product.num_symbols, ref.num_symbols);
      EXPECT_EQ(product.num_states, ref.num_states);
      EXPECT_EQ(product.accepting, ref.accepting);
      ASSERT_EQ(product.leaf_rules.size(), ref.leaf_rules.size());
      for (size_t i = 0; i < ref.leaf_rules.size(); ++i) {
        ASSERT_EQ(product.leaf_rules[i].symbol, ref.leaf_rules[i].symbol);
        ASSERT_EQ(product.leaf_rules[i].to, ref.leaf_rules[i].to);
      }
      ASSERT_EQ(product.rules.size(), ref.rules.size());
      for (size_t i = 0; i < ref.rules.size(); ++i) {
        ASSERT_EQ(product.rules[i].symbol, ref.rules[i].symbol) << "rule " << i;
        ASSERT_EQ(product.rules[i].left, ref.rules[i].left) << "rule " << i;
        ASSERT_EQ(product.rules[i].right, ref.rules[i].right) << "rule " << i;
        ASSERT_EQ(product.rules[i].to, ref.rules[i].to) << "rule " << i;
      }
      ExpectSameWork(ctx.counters, ref_ctx.counters);
    }
  }
}

TEST(ThreadInvarianceTest, TypecheckIdenticalAcrossThreadCounts) {
  Alphabet in_tags, out_tags;
  auto program =
      std::move(ParseXslt("template a { b { apply } }\ntemplate c { d }",
                          &in_tags, &out_tags))
          .ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
  auto in_dtd = std::move(ParseDtd("a := (a|c)*\nc := ()")).ValueOrDie();
  auto tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();
  const Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  // One instance that typechecks and one the refutation pass refutes.
  for (const char* out_schema :
       {"b := (b|d)*\nd := ()", "b := d*\nd := ()"}) {
    SCOPED_TRACE(out_schema);
    auto out_dtd = std::move(ParseDtd(out_schema)).ValueOrDie();
    auto tau2 = std::move(CompileDtdToNbta(out_dtd, out_enc)).ValueOrDie();
    TypecheckOptions opts;
    opts.refutation_max_trees = 40;
    opts.refutation_max_nodes = 15;
    opts.num_threads = 1;
    const auto ref = tc.Typecheck(tau1, tau2, opts);
    ASSERT_TRUE(ref.ok());
    opts.num_threads = 4;
    const auto r = tc.Typecheck(tau1, tau2, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, ref->verdict);
    EXPECT_EQ(r->method, ref->method);
    EXPECT_EQ(r->counterexample_input, ref->counterexample_input);
    EXPECT_EQ(r->counterexample_output, ref->counterexample_output);
    ExpectSameWork(r->op_counters, ref->op_counters);
  }
}

// ------------------------------------------ interrupted intersection -------

TEST(IntersectDrainTest, ExpiredDeadlineDrains) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = DenseAutomaton(sigma, 0x33);
  const Nbta b = DenseAutomaton(sigma, 0x44);
  TaOpContext ctx;
  ctx.budgets.deadline = std::chrono::steady_clock::now();
  ctx.budgets.checkpoint_stride = 1;
  Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
  EXPECT_TRUE(ctx.interrupted());
  EXPECT_EQ(ctx.interrupt().code(), StatusCode::kDeadlineExceeded);
  // The partial product is structurally sound even when drained early.
  EXPECT_TRUE(product.Validate(sigma).ok());
}

TEST(IntersectDrainTest, MidFlightCancellationDrains) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  // Large, near-total automata: the product has tens of thousands of pair
  // scans, far more than the canceller's latency on any host.
  Rng rng_a(0xaaaa), rng_b(0xbbbb);
  RandomNbtaOptions big;
  big.num_states = 24;
  big.rule_density = 0.9;
  big.leaf_density = 0.9;
  big.accepting_density = 0.5;
  const Nbta a = RandomNbta(sigma, rng_a, big);
  const Nbta b = RandomNbta(sigma, rng_b, big);

  std::atomic<bool> cancel{false};
  TaOpContext ctx;
  ctx.budgets.cancel = &cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.store(true, std::memory_order_relaxed);
  });
  Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
  canceller.join();

  // Either the cancellation landed mid-flight (the interesting case: the
  // worklist drained with the sticky kCancelled recorded) or the product
  // beat the canceller; both must leave a consistent context and a sound
  // result.
  if (ctx.interrupted()) {
    EXPECT_EQ(ctx.interrupt().code(), StatusCode::kCancelled);
    // The checkpoint that observed the flag was counted; rules_scanned may
    // legitimately be zero if the flag landed before the first expansion
    // (e.g. under sanitizer slowdown).
    EXPECT_GT(ctx.counters.checkpoints, 0u);
  } else {
    EXPECT_EQ(product.num_states, IntersectNbta(a, b).num_states);
    EXPECT_GT(ctx.counters.rules_scanned, 0u);
  }
  EXPECT_TRUE(product.Validate(sigma).ok());
  EXPECT_EQ(ctx.counters.intersections, 1u);
}

TEST(IntersectDrainTest, CancelledBeforeStartProducesEmptyDrain) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = DenseAutomaton(sigma, 0x55);
  const Nbta b = DenseAutomaton(sigma, 0x66);
  std::atomic<bool> cancel{true};
  TaOpContext ctx;
  ctx.budgets.cancel = &cancel;
  Nbta product = IntersectNbta(NbtaIndex(a), NbtaIndex(b), &ctx);
  EXPECT_TRUE(ctx.interrupted());
  EXPECT_EQ(ctx.interrupt().code(), StatusCode::kCancelled);
  EXPECT_TRUE(product.Validate(sigma).ok());
}

// --------------------------------------------- sharded diffcheck sweep -----

TEST(ParallelDiffcheckTest, ShardedSweepMatchesSerialSweep) {
  DiffcheckOptions opts;
  opts.seed = 0xd1ff;
  opts.iters = 24;
  opts.typecheck_every = 8;
  opts.num_threads = 1;
  const DiffcheckReport serial = RunDiffcheck(opts);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(serial.worker_ranges.empty());

  opts.num_threads = 3;
  const DiffcheckReport sharded = RunDiffcheck(opts);
  EXPECT_TRUE(sharded.ok());
  // Iterations are deterministic in (seed, iteration) alone, so the sharded
  // sweep performs exactly the serial sweep's work.
  EXPECT_EQ(sharded.iterations, serial.iterations);
  EXPECT_EQ(sharded.comparisons, serial.comparisons);
  EXPECT_EQ(sharded.budget_skips, serial.budget_skips);
  ASSERT_EQ(sharded.worker_ranges.size(), 3u);
  size_t covered = 0;
  size_t expect_start = opts.start;
  for (const auto& r : sharded.worker_ranges) {
    EXPECT_EQ(r.start, expect_start) << "ranges must be contiguous";
    expect_start += r.iters;
    covered += r.iters;
  }
  EXPECT_EQ(covered, opts.iters);
}

TEST(ParallelDiffcheckTest, ThreadCapDoesNotExceedIterations) {
  DiffcheckOptions opts;
  opts.seed = 0xd1ff;
  opts.iters = 2;
  opts.typecheck_every = 0;
  opts.demorgan_every = 0;
  opts.num_threads = 16;
  const DiffcheckReport r = RunDiffcheck(opts);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_EQ(r.worker_ranges.size(), 2u);
}

}  // namespace
}  // namespace pebbletc
