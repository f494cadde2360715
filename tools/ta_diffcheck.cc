// ta_diffcheck: differential / metamorphic oracle CLI for the tree-automaton
// algebra. Runs the law catalogue in src/check/diffcheck.h over seeded random
// automata and trees, shrinks any failing witness, and prints a ready-to-
// paste regression test body.
//
//   ta_diffcheck --seed=123 --iters=5000
//   ta_diffcheck --seed=123 --start=417 --iters=1   # replay one failure
//
// Exit status: 0 when every law held, 1 on any violation, 2 on usage errors.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/check/diffcheck.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ta_diffcheck [options]\n"
               "  --seed=N            base RNG seed (default %llu)\n"
               "  --start=N           first iteration index (default 0)\n"
               "  --iters=N           iterations to run (default 1000)\n"
               "  --max_depth=N       sampled trees reach 2^N - 1 internal "
               "nodes (default 3)\n"
               "  --max_nodes=N       exhaustive tree enumeration bound "
               "(default 5)\n"
               "  --samples=N         random trees per iteration (default 8)\n"
               "  --max_failures=N    stop after N failures (default 5)\n"
               "  --typecheck_every=N typechecker law cadence, 0=off "
               "(default 8)\n"
               "  --infer_every=N     inverse-inference law cadence, 0=off "
               "(default 0)\n"
               "  --typecheck_deadline_ms=N  per-call typechecker deadline, "
               "0=none (default 10000)\n"
               "  --demorgan_every=N  heavy complement-of-product cadence, "
               "0=off (default 4)\n"
               "  --max_det_states=N  determinization budget (default 50000)\n"
               "  --threads=N         sweep shards, run on at most one thread "
               "per core; 0=one per core (default 1). Iterations stay "
               "deterministic in (seed, iteration), so failures replay with "
               "--threads=1\n"
               "  --memo              run the cached-vs-cold laws for the "
               "content-addressed op cache (docs/CACHING.md)\n"
               "  --memo_dir=PATH     persistent cache directory for the memo "
               "laws (exercises the binary write-through)\n"
               "  --memo_mb=N         memo cache capacity in MiB "
               "(default 64)\n"
               "  --no-shrink         report unshrunk witnesses\n",
               static_cast<unsigned long long>(
                   pebbletc::DiffcheckOptions{}.seed));
}

bool ParseU64(const char* arg, const char* name, uint64_t* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  *out = std::strtoull(arg + len + 1, &end, 0);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  pebbletc::DiffcheckOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t v = 0;
    if (ParseU64(arg, "--seed", &opts.seed)) {
    } else if (ParseU64(arg, "--start", &v)) {
      opts.start = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--iters", &v)) {
      opts.iters = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--max_depth", &v)) {
      opts.max_depth = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--max_nodes", &v)) {
      opts.exhaustive_max_nodes = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--samples", &v)) {
      opts.samples_per_iter = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--max_failures", &v)) {
      opts.max_failures = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--typecheck_every", &v)) {
      opts.typecheck_every = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--infer_every", &v)) {
      opts.infer_every = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--typecheck_deadline_ms", &v)) {
      opts.typecheck_deadline_ms = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--demorgan_every", &v)) {
      opts.demorgan_every = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--max_det_states", &v)) {
      opts.max_det_states = static_cast<size_t>(v);
    } else if (ParseU64(arg, "--threads", &v)) {
      opts.num_threads = static_cast<uint32_t>(v);
    } else if (std::strcmp(arg, "--memo") == 0) {
      opts.memo = true;
    } else if (std::strncmp(arg, "--memo_dir=", 11) == 0) {
      opts.memo = true;
      opts.memo_dir = arg + 11;
    } else if (ParseU64(arg, "--memo_mb", &v)) {
      opts.memo = true;
      opts.memo_mb = static_cast<size_t>(v);
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      opts.shrink = false;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "ta_diffcheck: unknown argument '%s'\n", arg);
      PrintUsage();
      return 2;
    }
  }

  pebbletc::DiffcheckReport report = pebbletc::RunDiffcheck(opts);

  std::printf("ta_diffcheck: %zu iterations, %zu comparisons, "
              "%zu budget skips, %zu failure(s)",
              report.iterations, report.comparisons, report.budget_skips,
              report.failures.size());
  if (report.suppressed_failures > 0) {
    std::printf(" (+%zu suppressed repeats)", report.suppressed_failures);
  }
  std::printf("\n");
  for (const auto& r : report.worker_ranges) {
    std::printf("ta_diffcheck:   worker %u ran --start=%zu --iters=%zu\n",
                r.worker, r.start, r.iters);
  }

  for (const pebbletc::DiffcheckFailure& f : report.failures) {
    std::printf("\n=== FAILURE: %s (iteration %zu, seed %llu) ===\n%s\n",
                f.law.c_str(), f.iteration,
                static_cast<unsigned long long>(f.seed), f.detail.c_str());
    if (!f.repro.empty()) {
      std::printf("--- shrunk reproducer (paste into "
                  "tests/diffcheck_regression_test.cc) ---\n%s",
                  f.repro.c_str());
    }
  }

  if (!report.ok()) {
    std::printf("\nta_diffcheck: FAILED\n");
    return 1;
  }
  std::printf("ta_diffcheck: OK\n");
  return 0;
}
