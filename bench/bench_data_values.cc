// E10 (Section 5, data values): typechecking transducers with m unary
// predicates on data values reduces to typechecking over 2^m constants.
// Series: typechecking cost vs m — the alphabet (and the machine's guard
// set) doubles per predicate, the verdicts stay exact.

#include <benchmark/benchmark.h>

#include "src/common/check.h"
#include "src/core/typechecker.h"
#include "src/ext/data_values.h"

namespace pebbletc {
namespace {

RankedAlphabet DataRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("d");
  (void)sigma.AddLeaf("e");
  (void)sigma.AddBinary("n");
  return sigma;
}

// The classifier: on a single data leaf, emit `yes` iff predicate 0 holds
// (the other m-1 predicates only blow up the alphabet, mirroring realistic
// machines that test several properties).
struct Workload {
  RankedAlphabet base;
  ExpandedDataAlphabet exp;
  RankedAlphabet out_sigma;
  PebbleTransducer t;
  Nbta tau1, tau2;

  explicit Workload(uint32_t m) : base(DataRanked()), t(1, 1, 1) {
    exp = std::move(ExpandDataAlphabet(base, base.Find("d"), m)).ValueOrDie();
    SymbolId yes = std::move(out_sigma.AddLeaf("yes")).ValueOrDie();
    SymbolId no = std::move(out_sigma.AddLeaf("no")).ValueOrDie();
    t = PebbleTransducer(1, static_cast<uint32_t>(exp.ranked.size()), 2);
    StateId q = t.AddState(1);
    t.SetStart(q);
    for (uint32_t bits = 0; bits < (1u << m); ++bits) {
      t.AddOutputLeaf({.symbol = exp.data_variant[bits]}, q,
                      (bits & 1u) ? yes : no);
    }
    Nbta base_input;
    base_input.num_symbols = static_cast<uint32_t>(base.size());
    StateId s = base_input.AddState();
    base_input.accepting[s] = true;
    base_input.AddLeafRule(base.Find("d"), s);
    tau1 = LiftTypeToExpanded(base_input, exp);
    tau2.num_symbols = 2;
    StateId a = tau2.AddState();
    tau2.accepting[a] = true;
    tau2.AddLeafRule(yes, a);
    tau2.AddLeafRule(no, a);
  }
};

void BM_ReductionTypecheck(benchmark::State& state) {
  Workload w(static_cast<uint32_t>(state.range(0)));
  Typechecker tc(w.t, w.exp.ranked, w.out_sigma);
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  for (auto _ : state) {
    auto r = tc.Typecheck(w.tau1, w.tau2);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    benchmark::DoNotOptimize(r);
  }
  state.counters["predicates"] = static_cast<double>(state.range(0));
  state.counters["expanded_symbols"] =
      static_cast<double>(w.exp.ranked.size());
  state.counters["typechecks"] =
      verdict == TypecheckVerdict::kTypechecks ? 1 : 0;
}
BENCHMARK(BM_ReductionTypecheck)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

void BM_ReductionRefutation(benchmark::State& state) {
  // Against the τ2 = {yes} type, the d#...0 inputs refute — found by the
  // exact refutation regardless of m.
  Workload w(static_cast<uint32_t>(state.range(0)));
  Nbta tau2_yes;
  tau2_yes.num_symbols = 2;
  StateId a = tau2_yes.AddState();
  tau2_yes.accepting[a] = true;
  tau2_yes.AddLeafRule(w.out_sigma.Find("yes"), a);
  Typechecker tc(w.t, w.exp.ranked, w.out_sigma);
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  for (auto _ : state) {
    auto r = tc.Typecheck(w.tau1, tau2_yes);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    benchmark::DoNotOptimize(r);
  }
  state.counters["predicates"] = static_cast<double>(state.range(0));
  state.counters["refuted"] =
      verdict == TypecheckVerdict::kCounterexample ? 1 : 0;
}
BENCHMARK(BM_ReductionRefutation)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
