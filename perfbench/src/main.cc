// pebbletc_perf: the end-to-end benchmark of the typecheck service.
//
//   pebbletc_perf --workload <validate-large|typecheck-cold|serve-mixed>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--revision <id>]
//
// Drives the daemon's request path in-process through
// ServerCore::HandleFrame with the daemon's default ServeOptions, as closed
// loops of client threads. With --trace 0 it measures the end-to-end
// metrics; with --trace 1 it runs half the time untraced and half traced
// (see src/replay.h) and reports per-layer metrics. Every answer is checked:
// a wrong verdict, a failed generator self-test or a client/server stats
// mismatch makes the run fail. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// is a fuller report. See perfbench/README.md.

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/replay.h"
#include "src/serve/server.h"
#include "src/ta/op_cache.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using pebbletc::Status;
using pebbletc::TaOpCache;
namespace serve = pebbletc::serve;

// Set-ups per run, before and after the measured loops; set-up time is
// their median. A set-up takes milliseconds, so set-ups at both ends sample
// the host's speed at two times, as the loops spread over the whole run do.
constexpr int kSetupsBefore = 6, kSetupsAfter = 5;
// serve-mixed traces one request in this many (its requests are small and
// many; the other workloads trace every request). Prime to the 1000-request
// cycle, so successive cycles trace different positions.
constexpr uint64_t kMixedTraceEvery = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string revision = "unknown";
};

// What one client thread saw. `attempted` counts every HandleFrame call,
// warm-up requests included, so it can be reconciled with the server.
// `failed` counts requests: a non-OK wire status, or a batch with any failed
// document. `failed_docs` counts the failed documents inside batches.
struct Tally {
  uint64_t attempted = 0, ok = 0, overloaded = 0, degraded = 0, hard_errors = 0;
  uint64_t failed = 0, failed_docs = 0, wrong = 0;
  uint64_t validated_bytes = 0;
  uint64_t tc_attempted = 0, tc_decided = 0;
  std::vector<double> latency_ms;
  std::vector<std::string> problems;  // first few wrong answers / failures
  std::set<std::pair<int, std::string>> counterexamples;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    overloaded += o.overloaded;
    degraded += o.degraded;
    hard_errors += o.hard_errors;
    failed += o.failed;
    failed_docs += o.failed_docs;
    wrong += o.wrong;
    validated_bytes += o.validated_bytes;
    tc_attempted += o.tc_attempted;
    tc_decided += o.tc_decided;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    for (const std::string& p : o.problems) Note(p);
    counterexamples.insert(o.counterexamples.begin(), o.counterexamples.end());
  }
  void Note(const std::string& p) {
    if (problems.size() < 8) problems.push_back(p);
  }
};

// Hard errors as ServerCore counts them: a typecheck whose Typechecker run
// itself failed, which reaches the client as any status other than the
// ones name resolution, compilation, validity or admission produce.
bool IsHardError(serve::Opcode op, serve::WireStatus s) {
  if (op != serve::Opcode::kTypecheck && op != serve::Opcode::kInferInverse) {
    return false;
  }
  switch (s) {
    case serve::WireStatus::kOk:
    case serve::WireStatus::kOverloaded:
    case serve::WireStatus::kValidationFailed:
    case serve::WireStatus::kMalformedFrame:
    case serve::WireStatus::kUnsupportedVersion:
    case serve::WireStatus::kUnknownOpcode:
    case serve::WireStatus::kNotFound:
    case serve::WireStatus::kFailedPrecondition:
      return false;
    default:
      return true;
  }
}

// Checks one response against what its request is known to produce.
void Check(const Inputs& in, const PlannedRequest& req,
           const std::string& payload, Tally* t) {
  if (req.op == serve::Opcode::kTypecheck) ++t->tc_attempted;
  pebbletc::Result<serve::Response> r = serve::DecodeResponse(payload);
  if (!r.ok()) {
    ++t->wrong;
    t->Note("undecodable response: " + r.status().ToString());
    return;
  }
  const serve::WireStatus status = r->header.status;
  if (status != serve::WireStatus::kOk) {
    ++t->failed;
    if (status == serve::WireStatus::kOverloaded) ++t->overloaded;
    if (IsHardError(req.op, status)) ++t->hard_errors;
    t->Note(std::string("request failed: ") + serve::WireStatusName(status) +
            ": " + r->header.detail);
    return;
  }
  ++t->ok;
  switch (req.op) {
    case serve::Opcode::kValidate: {
      const auto& body = std::get<serve::ValidateResponse>(r->body);
      const Doc& doc = in.docs[req.docs[0]];
      if (body.valid != doc.valid) {
        ++t->wrong;
        t->Note("validate verdict " + std::to_string(body.valid) + " for a " +
                (doc.valid ? "valid" : "invalid") + " document");
      }
      t->validated_bytes += req.doc_bytes;
      break;
    }
    case serve::Opcode::kValidateBatch: {
      const auto& body = std::get<serve::ValidateBatchResponse>(r->body);
      if (body.verdicts.size() != req.docs.size()) {
        ++t->wrong;
        t->Note("batch answered the wrong number of documents");
        break;
      }
      uint64_t failed_docs = 0;
      for (size_t i = 0; i < req.docs.size(); ++i) {
        const serve::BatchDocVerdict& v = body.verdicts[i];
        if (v.status != static_cast<uint8_t>(serve::WireStatus::kOk)) {
          ++failed_docs;
          t->Note("batch document failed: " + v.diagnostic);
        } else if (v.valid != in.docs[req.docs[i]].valid) {
          ++t->wrong;
          t->Note("batch verdict disagrees with the reference validator");
        }
      }
      t->failed_docs += failed_docs;
      if (failed_docs > 0) ++t->failed;
      t->validated_bytes += req.doc_bytes;
      break;
    }
    case serve::Opcode::kTypecheck: {
      const auto& body = std::get<serve::TypecheckResponse>(r->body);
      const TcInstance& inst = in.instances[req.instance];
      if (body.verdict == 2) {
        ++t->degraded;
        break;
      }
      ++t->tc_decided;
      if (body.verdict == 0 && !inst.holds) {
        ++t->wrong;
        t->Note("typechecks verdict on a known counterexample instance (" +
                inst.kind + ")");
      } else if (body.verdict == 1) {
        // Re-checked outside the typechecker after the run.
        t->counterexamples.emplace(req.instance, body.counterexample_input_xml);
      }
      break;
    }
    case serve::Opcode::kLoadArtifact: {
      const auto& body = std::get<serve::LoadArtifactResponse>(r->body);
      if (body.kind != static_cast<uint8_t>(serve::RegistryEntry::Kind::kDtd)) {
        ++t->wrong;
        t->Note("reload installed the wrong artifact kind");
      }
      break;
    }
    default:
      break;
  }
}

// Sends one request, checks its answer and returns the response; `*start`
// and `*end` receive the bounds of the HandleFrame call.
std::string Send(serve::ServerCore* server, const Inputs& in,
                 const PlannedRequest& req, Tally* t, Clock::time_point* start,
                 Clock::time_point* end) {
  if (in.cold) TaOpCache::Global().Clear();
  ++t->attempted;
  *start = Clock::now();
  std::string response = server->HandleFrame(req.payload);
  *end = Clock::now();
  Check(in, req, response, t);
  return response;
}

struct Loop {
  Tally tally;
  double wall_s = 0;
  std::vector<double> position_ms;  // mean HandleFrame time per position
  std::vector<Span> spans;
  LayerCounts counts;
};

// One closed loop: `in.clients` threads walk the request sequence until the
// time is up and a cycle boundary is reached. With a replayer, every
// `trace_every`-th request is traced and replayed.
Loop RunLoop(serve::ServerCore* server, const Inputs& in, double seconds,
             Replayer* replayer, uint64_t trace_every, Clock::time_point epoch,
             uint64_t request_base) {
  const size_t n = in.sequence.size();
  std::atomic<uint64_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(in.clients);
  std::vector<std::vector<double>> pos_sum(in.clients, std::vector<double>(n));
  std::vector<std::vector<uint32_t>> pos_cnt(in.clients, std::vector<uint32_t>(n));
  std::vector<std::vector<Span>> spans(in.clients);
  std::vector<LayerCounts> counts(in.clients);
  const Clock::time_point t0 = Clock::now();
  auto client = [&](int c) {
    for (;;) {
      const uint64_t i = next.fetch_add(1);
      if (stop.load()) break;
      if (in.cold && i >= n) break;  // every instance sent once
      const bool boundary =
          i >= in.prefix && (i - in.prefix) % in.cycle == 0;
      if (boundary && SecondsSince(t0) >= seconds) {
        stop.store(true);
        break;
      }
      const size_t pos = i % n;
      const PlannedRequest& req = in.sequence[pos];
      Clock::time_point a, b;
      const std::string response = Send(server, in, req, &tallies[c], &a, &b);
      const double ms = std::chrono::duration<double, std::milli>(b - a).count();
      tallies[c].latency_ms.push_back(ms);
      pos_sum[c][pos] += ms;
      ++pos_cnt[c][pos];
      if (replayer != nullptr && i % trace_every == 0) {
        Span root{request_base + i + 1, kSpanRoot, true, NanosBetween(epoch, a),
                  NanosBetween(epoch, b), 0};
        spans[c].push_back(root);
        replayer->Replay(req, response, root, &spans[c], &counts[c]);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < in.clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& th : threads) th.join();
  Loop loop;
  loop.wall_s = SecondsSince(t0);
  loop.position_ms.assign(n, 0.0);
  for (int c = 0; c < in.clients; ++c) {
    loop.tally.Merge(tallies[c]);
    loop.spans.insert(loop.spans.end(), spans[c].begin(), spans[c].end());
    loop.counts.Merge(counts[c]);
  }
  for (size_t p = 0; p < n; ++p) {
    double sum = 0;
    uint32_t cnt = 0;
    for (int c = 0; c < in.clients; ++c) {
      sum += pos_sum[c][p];
      cnt += pos_cnt[c][p];
    }
    if (cnt > 0) loop.position_ms[p] = sum / cnt;
  }
  return loop;
}

double CpuMhz() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return std::atof(line.c_str() + colon + 1);
    }
  }
  return 0.0;
}

// A field of /proc/self/status given in kB ("VmRSS:", "VmHWM:"), in MB;
// -1 when it cannot be read.
double ProcStatusMb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atof(line.c_str() + field.size()) / 1024.0;
    }
  }
  return -1.0;
}

// Restarts the peak-resident-size mark at the current resident size, after
// handing freed heap pages back to the kernel, so the peak read later does
// not cover what was freed before. Returns the resident size in MB, or -1
// when the mark cannot be reset.
double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f.good()) return -1.0;
  return ProcStatusMb("VmRSS:");
}

std::string MetricsJson(const MetricMap& metrics, bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: pebbletc_perf --workload <validate-large|typecheck-cold|"
               "serve-mixed> --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--revision ID]\n");
  return 2;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 3;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.seconds <= 0 || argc % 2 == 0) return Usage();

  // Inputs (not part of any timing), then the generator self-test.
  const Clock::time_point gen0 = Clock::now();
  pebbletc::Result<Inputs> made = MakeInputs(args.workload, args.seed);
  if (!made.ok()) return Fail(made.status().ToString());
  const Inputs& in = *made;
  Status self_test = SelfTest(in);
  if (!self_test.ok()) return Fail("generator self-test: " + self_test.ToString());
  const double gen_s = SecondsSince(gen0);
  // Peak memory covers set-up and the measured loop, not the generator and
  // its self-test. The inputs stay resident, so it includes them.
  const double base_rss_mb = ResetPeakRss();
  if (base_rss_mb < 0) return Fail("cannot reset the peak resident size");

  // Set-up: a fresh server on an empty op cache, registry load and warm-up.
  // The last set-up before the loops serves them; `warm` is its warm-up.
  std::vector<double> setups;
  std::unique_ptr<serve::ServerCore> server;
  Tally warm;
  auto set_up = [&]() -> Status {
    server.reset();
    TaOpCache::Global().Clear();
    warm = Tally();
    // Every set-up starts, as a fresh daemon does, on a heap that holds no
    // freed pages of the server before it; otherwise set-up time depends
    // on how much of that server's memory the allocator happened to keep.
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<serve::ServerCore>(serve::ServeOptions{});
    PEBBLETC_RETURN_IF_ERROR(LoadRegistry(in, server.get()));
    for (const PlannedRequest& req : in.warmup) {
      Clock::time_point a, b;
      Send(server.get(), in, req, &warm, &a, &b);
    }
    setups.push_back(SecondsSince(t0));
    if (warm.wrong > 0 || warm.failed > 0) {
      return Status::Internal(
          "warm-up failed: " +
          (warm.problems.empty() ? std::string() : warm.problems[0]));
    }
    return Status::OK();
  };
  for (int s = 0; s < kSetupsBefore; ++s) {
    Status st = set_up();
    if (!st.ok()) return Fail("set-up: " + st.ToString());
  }
  if (in.cold) TaOpCache::Global().Clear();
  const size_t cache_entries_at_start = TaOpCache::Global().entries();

  const Clock::time_point epoch = Clock::now();
  const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
  Loop main_loop =
      RunLoop(server.get(), in, measured_s, nullptr, 1, epoch, 0);
  Loop traced;
  std::vector<Span> plan_spans;
  LayerCounts plan_counts;
  if (args.trace) {
    Replayer replayer(in, server.get(), epoch);
    Status compiled = replayer.CompilePlans(&plan_spans, &plan_counts);
    if (!compiled.ok()) return Fail("plan compile: " + compiled.ToString());
    traced = RunLoop(server.get(), in, args.seconds / 2, &replayer,
                     in.workload == "serve-mixed" ? kMixedTraceEvery : 1, epoch,
                     in.sequence.size() * 4);
  }

  // Probes, once each, after the measured loops. kInvalidArgument is the
  // known limitation they stand for: reported, not counted as a failure.
  // Any other failure is unexpected, and a verdict is checked as usual.
  Tally probes;
  std::vector<std::string> limitations;
  for (const PlannedRequest& req : in.probes) {
    Tally one;
    Clock::time_point a, b;
    const std::string response = Send(server.get(), in, req, &one, &a, &b);
    pebbletc::Result<serve::Response> r = serve::DecodeResponse(response);
    if (r.ok() && r->header.status == serve::WireStatus::kInvalidArgument) {
      limitations.push_back(in.instances[req.instance].kind + ": " +
                            r->header.detail);
      one.failed = 0;
      one.problems.clear();
    } else if (one.failed > 0) {
      one.wrong += one.failed;
    }
    probes.Merge(one);
  }

  Tally all = warm;
  all.Merge(main_loop.tally);
  if (args.trace) all.Merge(traced.tally);
  all.Merge(probes);

  // Counterexamples, re-checked outside the typechecker.
  for (const auto& [instance, xml] : all.counterexamples) {
    Status ok = RecheckCounterexample(in.parsed[instance], xml);
    if (!ok.ok()) {
      ++all.wrong;
      all.Note("counterexample re-check (" + in.instances[instance].kind +
               "): " + ok.ToString());
    }
  }
  // Client counts against the server's own counters.
  const serve::StatsResponse stats = server->SnapshotStats();
  const bool reconciled = stats.requests_total == all.attempted &&
                          stats.responses_ok == all.ok &&
                          stats.overload_rejected == all.overloaded &&
                          stats.degraded_verdicts == all.degraded &&
                          stats.hard_errors == all.hard_errors;
  if (!reconciled) {
    all.Note("stats mismatch: server total/ok/overloaded/degraded/hard = " +
             std::to_string(stats.requests_total) + "/" +
             std::to_string(stats.responses_ok) + "/" +
             std::to_string(stats.overload_rejected) + "/" +
             std::to_string(stats.degraded_verdicts) + "/" +
             std::to_string(stats.hard_errors) + ", client " +
             std::to_string(all.attempted) + "/" + std::to_string(all.ok) + "/" +
             std::to_string(all.overloaded) + "/" + std::to_string(all.degraded) +
             "/" + std::to_string(all.hard_errors));
  }
  const bool correct = all.wrong == 0 && reconciled;
  const size_t cache_entries = TaOpCache::Global().entries();
  const size_t cache_bytes = TaOpCache::Global().size_bytes();

  // The remaining set-ups, now that nothing reads the measured server.
  for (int s = 0; s < kSetupsAfter; ++s) {
    Status st = set_up();
    if (!st.ok()) return Fail("set-up: " + st.ToString());
  }

  // End-to-end metrics from the untraced loop.
  const Tally& t = main_loop.tally;
  const double n = static_cast<double>(t.latency_ms.size());
  MetricMap e2e;
  e2e["setup_s"] = {Median(setups), "s", setups.size()};
  e2e["requests_per_s"] = {n / main_loop.wall_s, "1/s", t.latency_ms.size()};
  e2e["latency_p50_ms"] = {Quantile(t.latency_ms, 0.5), "ms", t.latency_ms.size()};
  e2e["latency_p90_ms"] = {Quantile(t.latency_ms, 0.9), "ms", t.latency_ms.size()};
  const double hwm_mb = ProcStatusMb("VmHWM:");
  e2e["peak_rss_mb"] = {hwm_mb, "MB", 1};
  // Reported where they apply; not part of the gated set (BENCHMARK.json).
  MetricMap extra;
  if (t.latency_ms.size() >= 1000) {
    extra["latency_p99_ms"] = {Quantile(t.latency_ms, 0.99), "ms",
                               t.latency_ms.size()};
  }
  if (t.validated_bytes > 0) {
    extra["validate_mb_per_s"] = {t.validated_bytes / 1e6 / main_loop.wall_s,
                                  "MB/s", t.latency_ms.size()};
  }
  if (t.tc_attempted > 0) {
    extra["typecheck_decided_ratio"] = {
        static_cast<double>(t.tc_decided) / t.tc_attempted, "ratio",
        t.tc_attempted};
  }
  extra["failed_ratio"] = {n > 0 ? t.failed / n : 0.0, "ratio", t.latency_ms.size()};

  MetricMap layers;
  if (args.trace) {
    std::vector<Span> spans = plan_spans;
    spans.insert(spans.end(), traced.spans.begin(), traced.spans.end());
    LayerCounts counts = plan_counts;
    counts.Merge(traced.counts);
    layers = LayerMetrics(spans, counts, main_loop.position_ms,
                          traced.position_ms, cache_bytes);
    if (!args.trace_out.empty()) {
      Status written = WriteSpans(spans, args.trace_out);
      if (!written.ok()) return Fail(written.ToString());
    }
  }

  // The fuller report, then the result line.
  MetricMap reported = e2e;
  reported.insert(extra.begin(), extra.end());
  std::string report = "{\"report\": {\"workload\": \"" + in.workload +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + JsonNumber(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"measured_s\": " + JsonNumber(main_loop.wall_s) +
                       ", \"clients\": " + std::to_string(in.clients) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"cpu_mhz\": " + JsonNumber(CpuMhz()) +
                       ", \"revision\": \"" + JsonEscape(args.revision) +
                       "\", \"input_gen_s\": " + JsonNumber(gen_s) +
                       ", \"rss_mb\": {\"inputs\": " + JsonNumber(base_rss_mb) +
                       ", \"peak\": " + JsonNumber(hwm_mb) + "}" +
                       ", \"requests\": {\"attempted\": " +
                       std::to_string(all.attempted) +
                       ", \"ok\": " + std::to_string(all.ok) +
                       ", \"failed\": " + std::to_string(all.failed) +
                       ", \"failed_docs\": " + std::to_string(all.failed_docs) +
                       ", \"overloaded\": " + std::to_string(all.overloaded) +
                       ", \"degraded\": " + std::to_string(all.degraded) +
                       ", \"hard_errors\": " + std::to_string(all.hard_errors) +
                       ", \"wrong\": " + std::to_string(all.wrong) +
                       ", \"counterexamples_rechecked\": " +
                       std::to_string(all.counterexamples.size()) +
                       ", \"probes\": " + std::to_string(probes.attempted) +
                       ", \"known_limitations\": " +
                       std::to_string(limitations.size()) +
                       "}, \"stats_reconciled\": " +
                       (reconciled ? "true" : "false") +
                       ", \"op_cache\": {\"entries_at_start\": " +
                       std::to_string(cache_entries_at_start) +
                       ", \"entries\": " +
                       std::to_string(cache_entries) +
                       ", \"size_bytes\": " +
                       std::to_string(cache_bytes) +
                       "}, \"end_to_end\": " + MetricsJson(reported, true);
  if (args.trace) report += ", \"per_layer\": " + MetricsJson(layers, true);
  report += ", \"limitations\": [";
  for (size_t i = 0; i < limitations.size(); ++i) {
    report += (i ? ", \"" : "\"") + JsonEscape(limitations[i]) + "\"";
  }
  report += "], \"problems\": [";
  for (size_t i = 0; i < all.problems.size(); ++i) {
    report += (i ? ", \"" : "\"") + JsonEscape(all.problems[i]) + "\"";
  }
  report += "]}}";
  std::printf("%s\n", report.c_str());
  for (const std::string& p : all.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  for (const std::string& l : limitations) {
    std::fprintf(stderr, "perfbench: known limitation: %s\n", l.c_str());
  }

  // Failures and attempts of the measured loops (the traced one is empty
  // without --trace).
  const uint64_t attempted = main_loop.tally.attempted + traced.tally.attempted;
  const uint64_t failed = main_loop.tally.failed + traced.tally.failed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace ? layers : e2e, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
