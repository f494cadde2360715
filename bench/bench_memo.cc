// E15 (docs/CACHING.md): the content-addressed op cache measured cold vs
// warm.
//
//  * End-to-end: the same typecheck instance decided repeatedly with
//    TypecheckOptions::memo off (every op cold, the legacy path) and on
//    (every expensive op served from TaOpCache::Global() after the first
//    decision). The warm row is the service-shape workload — the same
//    transducer checked against the same schemas per request — and the
//    headline number is warm_speedup = time(cold) / time(warm).
//  * Per-op: ComplementNbta on the dense diffcheck family, cold vs a warm
//    TaAlgebra probe (structural hash + LRU lookup).
//  * Cache-size sensitivity: a working set of distinct complements cycled
//    through caches from ample to starved; the starved rows measure the
//    recompute-under-thrash regime (hit_rate falls toward zero).
//  * Persistence: AttachPersistentDir load+verify latency for a directory of
//    binary entries (docs/FORMATS.md).
//
// CI smoke-runs this binary in the bench-smoke job and uploads the JSON as
// the BENCH_memo.json artifact; the checked-in BENCH_memo.json records the
// cold/warm and sensitivity rows.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/check/diffcheck.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"
#include "src/tree/encode.h"

namespace pebbletc {
namespace {

// The dense diffcheck instance family (bench_parallel's DrawDense shape).
Nbta DrawDense(const RankedAlphabet& sigma, uint32_t states, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions opts;
  opts.num_states = states;
  opts.rule_density = 0.3;
  opts.leaf_density = 0.5;
  return RandomNbta(sigma, rng, opts);
}

// The downward rename pipeline instance:
// complement(tau2), the downward product, and the fast-path subset
// construction are all cacheable, so a warm decision is dominated by
// structural hashing and the per-instance glue.
struct RenameFixture {
  Alphabet in_tags, out_tags;
  EncodedAlphabet in_enc, out_enc;
  PebbleTransducer t;
  Nbta tau1, tau2;

  RenameFixture() : t(1, 1, 1) {
    auto program =
        std::move(ParseXslt("template a { b { apply } }\ntemplate c { d }",
                            &in_tags, &out_tags))
            .ValueOrDie();
    in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
    out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
    t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
    auto in_dtd = std::move(ParseDtd("a := (a|c)*\nc := ()")).ValueOrDie();
    tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();
    auto good_dtd = std::move(ParseDtd("b := (b|d)*\nd := ()")).ValueOrDie();
    tau2 = std::move(CompileDtdToNbta(good_dtd, out_enc)).ValueOrDie();
  }

  TypecheckOptions Options(TaMemoMode memo) const {
    TypecheckOptions opts;
    // Complete decision only: the refutation pass is per-tree enumeration
    // work the cache deliberately never serves (docs/CACHING.md), so it
    // would dilute the cold/warm contrast with identical time on both rows.
    opts.refutation_max_trees = 0;
    opts.memo = memo;
    return opts;
  }
};

void RunTypecheck(benchmark::State& state, TaMemoMode memo) {
  static const RenameFixture* f = new RenameFixture();
  Typechecker tc(f->t, f->in_enc.ranked, f->out_enc.ranked);
  const TypecheckOptions opts = f->Options(memo);
  TaOpCache::Global().Clear();
  if (memo != TaMemoMode::kOff) {
    // Prime once so the timed loop measures the steady warm state.
    PEBBLETC_CHECK(tc.Typecheck(f->tau1, f->tau2, opts).ok());
  }
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  size_t hits = 0, misses = 0;
  for (auto _ : state) {
    auto r = tc.Typecheck(f->tau1, f->tau2, opts);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    hits = r->op_counters.memo_hits;
    misses = r->op_counters.memo_misses;
    benchmark::DoNotOptimize(r);
  }
  state.counters["typechecks"] =
      verdict == TypecheckVerdict::kTypechecks ? 1 : 0;
  state.counters["memo_hits_per_run"] = static_cast<double>(hits);
  state.counters["memo_misses_per_run"] = static_cast<double>(misses);
}

void BM_TypecheckCold(benchmark::State& state) {
  RunTypecheck(state, TaMemoMode::kOff);
}
BENCHMARK(BM_TypecheckCold)->Unit(benchmark::kMillisecond);

void BM_TypecheckWarm(benchmark::State& state) {
  RunTypecheck(state, TaMemoMode::kInMemory);
}
BENCHMARK(BM_TypecheckWarm)->Unit(benchmark::kMillisecond);

void BM_ComplementCold(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Nbta a = DrawDense(sigma, n, 13);
  NbtaIndex ia(a);
  for (auto _ : state) {
    TaOpContext ctx;
    auto r = ComplementNbta(ia, sigma, &ctx);
    PEBBLETC_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ComplementCold)->Arg(6)->Arg(8)->Arg(10);

void BM_ComplementWarm(benchmark::State& state) {
  // The steady warm state: every probe is a hit, so the row measures the
  // cache's fixed overhead — trim + WL structural hash + locked LRU lookup.
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Nbta a = DrawDense(sigma, n, 13);
  NbtaIndex ia(a);
  TaOpCache cache;
  const TaAlgebra alg(&cache);
  auto memo_ctx = [] {
    TaOpContext ctx;
    ctx.budgets.memo = TaMemoMode::kInMemory;
    return ctx;
  };
  {
    TaOpContext prime = memo_ctx();
    PEBBLETC_CHECK(alg.Complement(ia, sigma, &prime).ok());
  }
  size_t hits = 0;
  for (auto _ : state) {
    TaOpContext ctx = memo_ctx();
    auto r = alg.Complement(ia, sigma, &ctx);
    PEBBLETC_CHECK(r.ok());
    hits += ctx.counters.memo_hits;
    benchmark::DoNotOptimize(r);
  }
  PEBBLETC_CHECK(hits == static_cast<size_t>(state.iterations()));
}
BENCHMARK(BM_ComplementWarm)->Arg(6)->Arg(8)->Arg(10);

void BM_WarmWorkingSet(benchmark::State& state) {
  // Cache-size sensitivity: cycle a working set of 8 distinct complements
  // through a cache of state.range(0) KiB. Ample capacity holds the whole
  // set (hit_rate 1); starved capacities evict mid-cycle and recompute.
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  constexpr size_t kWorkingSet = 8;
  std::vector<Nbta> as;
  as.reserve(kWorkingSet);
  for (size_t i = 0; i < kWorkingSet; ++i) {
    as.push_back(DrawDense(sigma, 8, 100 + i));
  }
  std::vector<std::unique_ptr<NbtaIndex>> idx;  // NbtaIndex is non-copyable
  for (const Nbta& a : as) idx.push_back(std::make_unique<NbtaIndex>(a));

  TaOpCache cache(static_cast<size_t>(state.range(0)) << 10);
  const TaAlgebra alg(&cache);
  size_t hits = 0, misses = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kWorkingSet; ++i) {
      TaOpContext ctx;
      ctx.budgets.memo = TaMemoMode::kInMemory;
      auto r = alg.Complement(*idx[i], sigma, &ctx);
      PEBBLETC_CHECK(r.ok());
      hits += ctx.counters.memo_hits;
      misses += ctx.counters.memo_misses;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["capacity_kb"] = static_cast<double>(state.range(0));
  state.counters["hit_rate"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
}
BENCHMARK(BM_WarmWorkingSet)->Arg(65536)->Arg(8192)->Arg(2048);

void BM_PersistentReload(benchmark::State& state) {
  // Cross-process warm start: load+verify a directory of state.range(0)
  // binary entries into a fresh cache (checksum verification included).
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  const size_t entries = static_cast<size_t>(state.range(0));
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "pebbletc_bench_memo" /
      ("reload_" + std::to_string(entries));
  std::error_code ec;
  fs::remove_all(dir, ec);
  {
    TaOpCache writer;
    PEBBLETC_CHECK(writer.AttachPersistentDir(dir.string()).ok());
    TaOpContext ctx;
    for (size_t i = 0; i < entries; ++i) {
      const Nbta a = DrawDense(sigma, 16, 500 + i);
      TaCacheKey key = MakeTaCacheKey(TaOpKind::kComplement,
                                      NbtaStructuralHash(a),
                                      TaStructuralHash{},
                                      RankedAlphabetFingerprint(sigma), 0);
      writer.InsertNbta(key, a, &ctx);
    }
  }
  size_t loaded = 0;
  for (auto _ : state) {
    TaOpCache reader;
    size_t n = 0;
    PEBBLETC_CHECK(reader.AttachPersistentDir(dir.string(), &n).ok());
    loaded = n;
    benchmark::DoNotOptimize(reader);
  }
  fs::remove_all(dir, ec);
  state.counters["entries_loaded"] = static_cast<double>(loaded);
}
BENCHMARK(BM_PersistentReload)->Arg(8)->Arg(64);

}  // namespace
}  // namespace pebbletc
