// The traced run's per-layer replay.
//
// For each sampled request the benchmark records a root span around
// ServerCore::HandleFrame, then replays the request as the chain of public
// layer calls HandleFrame makes — DecodeRequest, CheckRequest, Admit, the
// validation or typecheck calls, EncodeResponse — with a child span around
// each one. All spans of a request share its id. Spans marked `on_path`
// mirror a call the served request really made; the others time a layer on
// its own (the pass-split typechecks, the explicit complement, the downward
// product, the antichain checks, the tree-materializing validation route),
// and are left out when measuring how much of the root span the replay
// covers. Spans are timed from outside the library with steady_clock, kept
// in memory, and written out when the run ends.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/serve/server.h"
#include "src/serve/validate.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

enum SpanName : uint8_t {
  kSpanRoot,           // HandleFrame
  kSpanDecode,         // serve.protocol: DecodeRequest
  kSpanCheck,          // serve.validity: CheckRequest
  kSpanAdmit,          // serve.admission: Admit
  kSpanPlanCompile,    // serve.validate: CompileDtdPlan
  kSpanStream,         // ta.membership: StreamingValidateXml
  kSpanXmlParse,       // xml: ParseXmlKnown
  kSpanDiagnostic,     // dtd: SpecializedDtd::Validate
  kSpanTreeEncode,     // tree: EncodeTree
  kSpanAccepts,        // ta.membership: MembershipEngine::Accepts
  kSpanXsltCompile,    // query: CompileXslt
  kSpanDtdCompile,     // dtd: CompileDtdOver
  kSpanTypecheck,      // core.typechecker: Typecheck, server options
  kSpanRefute,         // core.typechecker: Typecheck, no complete decision
  kSpanComplete,       // core.typechecker: Typecheck, no refutation
  kSpanComplement,     // ta.nbta: ComplementNbta(τ2)
  kSpanDownward,       // core.downward: DownwardProductAutomaton
  kSpanInclusion,      // ta.inclusion: CheckOnInput with kAntichain
  kSpanEncode,         // serve.protocol: EncodeResponse
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t request = 0;  ///< shared by a root and its children
  SpanName name = kSpanRoot;
  bool on_path = false;
  uint64_t start_ns = 0, end_ns = 0;  ///< since the run's epoch
  double work = 0;  ///< bytes or nodes, for the rate metrics
};

/// Counts gathered by the replay (per thread, merged at the end).
struct LayerCounts {
  uint64_t fast_docs = 0, fallback_docs = 0;
  uint64_t admission_shed = 0;
  uint64_t plan_compiles = 0;
  std::map<std::string, uint64_t> methods;  ///< TypecheckResponse::method
  uint64_t exhausted = 0;
  uint64_t typechecks = 0;  ///< replayed on-path typechecks
  uint64_t det_pairs = 0, det_subsets = 0, states = 0, intersections = 0;
  uint64_t incl_checks = 0, incl_interned = 0, incl_pruned = 0;
  uint64_t memo_hits = 0, memo_misses = 0, memo_evictions = 0;

  void Merge(const LayerCounts& other);
};

class Replayer {
 public:
  Replayer(const Inputs& inputs, pebbletc::serve::ServerCore* server,
           Clock::time_point epoch);

  /// Compiles a validation plan for every DTD of the workload against a
  /// private, empty op cache (the cold compile set-up pays), one span each.
  pebbletc::Status CompilePlans(std::vector<Span>* spans, LayerCounts* counts);

  /// Replays one request whose HandleFrame call was timed as `root`;
  /// `response` is what HandleFrame returned.
  void Replay(const PlannedRequest& request, const std::string& response,
              const Span& root, std::vector<Span>* spans, LayerCounts* counts);

 private:
  std::shared_ptr<const pebbletc::serve::ValidationPlan> PlanOf(
      const std::string& schema);
  void ReplayDoc(const pebbletc::serve::ValidationPlan& plan, const Doc& doc,
                 uint64_t request, bool count_route, std::vector<Span>* spans,
                 LayerCounts* counts);
  void ReplayTypecheck(int instance, uint64_t request, std::vector<Span>* spans,
                       LayerCounts* counts);

  const Inputs& inputs_;
  pebbletc::serve::ServerCore* server_;
  Clock::time_point epoch_;
  std::map<std::string, std::shared_ptr<const pebbletc::SpecializedDtd>> dtds_;
  std::mutex plans_mu_;
  std::map<std::string, std::shared_ptr<const pebbletc::serve::ValidationPlan>>
      plans_;
};

/// Per-layer metrics of a traced run. `untraced_ms` / `traced_ms` hold the
/// mean HandleFrame time per sequence position in the untraced and traced
/// halves (0 where a position was not run).
MetricMap LayerMetrics(const std::vector<Span>& spans, const LayerCounts& counts,
                       const std::vector<double>& untraced_ms,
                       const std::vector<double>& traced_ms,
                       size_t op_cache_bytes);

/// Writes every span as one tab-separated line.
pebbletc::Status WriteSpans(const std::vector<Span>& spans,
                            const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
