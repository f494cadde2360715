#include "perfbench/src/replay.h"

#include <algorithm>
#include <cstdio>

#include "src/common/arena.h"
#include "src/core/downward.h"
#include "src/core/typechecker.h"
#include "perfbench/src/docgen.h"
#include "src/pt/eval.h"
#include "src/serve/validity.h"
#include "src/ta/convert.h"
#include "src/ta/enumerate.h"
#include "src/ta/inclusion.h"
#include "src/ta/membership.h"
#include "src/ta/op_cache.h"
#include "src/tree/encode.h"
#include "src/xml/xml.h"

namespace perfbench {

using pebbletc::Alphabet;
using pebbletc::BinaryTree;
using pebbletc::EncodedAlphabet;
using pebbletc::Nbta;
using pebbletc::PebbleTransducer;
using pebbletc::Result;
using pebbletc::Status;
using pebbletc::TaOpCache;
using pebbletc::TaOpContext;
using pebbletc::TypecheckOptions;
using pebbletc::TypecheckResult;
namespace serve = pebbletc::serve;

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "root",           "serve.protocol.decode", "serve.validity.check",
      "serve.admission.admit", "serve.validate.plan_compile",
      "ta.membership.stream",  "xml.parse",        "dtd.diagnostic",
      "tree.encode",    "ta.membership.accepts", "query.xslt_compile",
      "dtd.compile",    "core.typechecker.typecheck",
      "core.typechecker.refute", "core.typechecker.complete",
      "ta.nbta.complement",      "core.downward.product",
      "ta.inclusion.check",      "serve.protocol.encode"};
  return kNames[name];
}

void LayerCounts::Merge(const LayerCounts& o) {
  fast_docs += o.fast_docs;
  fallback_docs += o.fallback_docs;
  admission_shed += o.admission_shed;
  plan_compiles += o.plan_compiles;
  for (const auto& [m, n] : o.methods) methods[m] += n;
  exhausted += o.exhausted;
  typechecks += o.typechecks;
  det_pairs += o.det_pairs;
  det_subsets += o.det_subsets;
  states += o.states;
  intersections += o.intersections;
  incl_checks += o.incl_checks;
  incl_interned += o.incl_interned;
  incl_pruned += o.incl_pruned;
  memo_hits += o.memo_hits;
  memo_misses += o.memo_misses;
  memo_evictions += o.memo_evictions;
}

namespace {

// Runs `fn` inside a child span of `request`.
template <typename Fn>
auto Timed(SpanName name, bool on_path, double work, uint64_t request,
           Clock::time_point epoch, std::vector<Span>* spans, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  const Clock::time_point t1 = Clock::now();
  spans->push_back(Span{request, name, on_path, NanosBetween(epoch, t0),
                        NanosBetween(epoch, t1), work});
  return result;
}

// The options HandleFrame's typecheck runs with (ServerCore's
// RequestOptions for a request that asks for no deadline of its own).
TypecheckOptions ServerTypecheckOptions(const serve::ServeOptions& s) {
  TypecheckOptions o;
  o.deadline = std::chrono::milliseconds(
      std::min(s.default_deadline_ms, s.validity.max_deadline_ms));
  o.max_det_states = s.max_det_states;
  o.max_antichain_pairs = s.max_antichain_pairs;
  o.inclusion = s.inclusion;
  o.num_threads = s.num_threads;
  o.memo = s.memo;
  return o;
}

// An op context with the server's per-request budgets and deadline.
TaOpContext ServerContext(const serve::ServeOptions& s) {
  pebbletc::TaOpBudgets b;
  b.deadline = Clock::now() + std::chrono::milliseconds(std::min(
                                  s.default_deadline_ms, s.validity.max_deadline_ms));
  b.max_det_states = s.max_det_states;
  b.max_antichain_pairs = s.max_antichain_pairs;
  b.num_threads = s.num_threads;
  b.memo = s.memo;
  return TaOpContext(b);
}

}  // namespace

Replayer::Replayer(const Inputs& inputs, serve::ServerCore* server,
                   Clock::time_point epoch)
    : inputs_(inputs), server_(server), epoch_(epoch) {
  for (const auto& [name, text] : inputs.dtds) {
    dtds_[name] = MustParseDtd(text.c_str());
  }
}

Status Replayer::CompilePlans(std::vector<Span>* spans, LayerCounts* counts) {
  for (const auto& [name, dtd] : dtds_) {
    TaOpCache cold;
    TaOpContext ctx = ServerContext(server_->options());
    Result<serve::ValidationPlan> plan =
        Timed(kSpanPlanCompile, false, 0, 0, epoch_, spans,
              [&] { return serve::CompileDtdPlan(dtd, &ctx, &cold); });
    if (!plan.ok()) return plan.status();
    ++counts->plan_compiles;
    std::lock_guard<std::mutex> lock(plans_mu_);
    plans_[name] =
        std::make_shared<const serve::ValidationPlan>(std::move(plan).value());
  }
  return Status::OK();
}

std::shared_ptr<const serve::ValidationPlan> Replayer::PlanOf(
    const std::string& schema) {
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_.at(schema);
}

void Replayer::Replay(const PlannedRequest& request,
                      const std::string& response, const Span& root,
                      std::vector<Span>* spans, LayerCounts* counts) {
  const uint64_t id = root.request;
  const serve::ServeOptions& opts = server_->options();
  Result<serve::Request> decoded =
      Timed(kSpanDecode, true, request.payload.size(), id, epoch_, spans, [&] {
        return serve::DecodeRequest(request.payload, opts.max_frame_bytes);
      });
  if (!decoded.ok()) return;
  Timed(kSpanCheck, true, 0, id, epoch_, spans,
        [&] { return serve::CheckRequest(*decoded, opts.validity).ok(); });
  Result<serve::Response> answer = serve::DecodeResponse(response);
  if (!answer.ok()) return;

  const bool heavy = request.op == serve::Opcode::kValidate ||
                     request.op == serve::Opcode::kValidateBatch ||
                     request.op == serve::Opcode::kTypecheck ||
                     request.op == serve::Opcode::kLoadArtifact;
  if (heavy) {
    // The slot is held through the dispatch replay, as HandleFrame holds it.
    Result<serve::AdmissionController::Slot> slot =
        Timed(kSpanAdmit, true, 0, id, epoch_, spans, [&] {
          return server_->admission().Admit(opts.admission_wait);
        });
    if (!slot.ok()) ++counts->admission_shed;
    switch (request.op) {
      case serve::Opcode::kValidate: {
        const auto plan = PlanOf(request.schema);
        ReplayDoc(*plan, inputs_.docs[request.docs[0]], id, true, spans, counts);
        break;
      }
      case serve::Opcode::kValidateBatch: {
        const auto plan = PlanOf(request.schema);
        for (int doc : request.docs) {
          ReplayDoc(*plan, inputs_.docs[doc], id, false, spans, counts);
        }
        if (answer->header.status == serve::WireStatus::kOk) {
          const auto& body = std::get<serve::ValidateBatchResponse>(answer->body);
          counts->fast_docs += body.fast_path_docs;
          counts->fallback_docs += body.fallback_docs;
        }
        break;
      }
      case serve::Opcode::kTypecheck: {
        if (answer->header.status == serve::WireStatus::kOk) {
          const auto& body = std::get<serve::TypecheckResponse>(answer->body);
          ++counts->methods[body.method];
          if (body.exhausted) ++counts->exhausted;
        }
        ReplayTypecheck(request.instance, id, spans, counts);
        break;
      }
      case serve::Opcode::kLoadArtifact: {
        // The server recompiles the reloaded DTD's plan on its next
        // validate request; time that compile here, against the shared op
        // cache the server uses.
        TaOpContext ctx = ServerContext(opts);
        Result<serve::ValidationPlan> plan =
            Timed(kSpanPlanCompile, false, 0, id, epoch_, spans, [&] {
              return serve::CompileDtdPlan(dtds_.at(request.schema), &ctx);
            });
        if (plan.ok()) {
          ++counts->plan_compiles;
          std::lock_guard<std::mutex> lock(plans_mu_);
          plans_[request.schema] = std::make_shared<const serve::ValidationPlan>(
              std::move(plan).value());
        }
        break;
      }
      default:
        break;
    }
  }
  std::string encoded;
  Timed(kSpanEncode, true, 0, id, epoch_, spans, [&] {
    serve::EncodeResponse(*answer, &encoded);
    return 0;
  });
}

void Replayer::ReplayDoc(const serve::ValidationPlan& plan, const Doc& doc,
                         uint64_t id, bool count_route, std::vector<Span>* spans,
                         LayerCounts* counts) {
  const serve::ServeOptions& opts = server_->options();
  TaOpContext ctx = ServerContext(opts);
  pebbletc::Arena arena;
  const bool fast = plan.engine.fast();
  if (count_route) ++(fast ? counts->fast_docs : counts->fallback_docs);
  const double bytes = static_cast<double>(doc.xml.size());
  bool accepted = false;
  if (fast) {
    Result<pebbletc::StreamVerdict> v =
        Timed(kSpanStream, true, bytes, id, epoch_, spans, [&] {
          return pebbletc::StreamingValidateXml(doc.xml, *plan.engine.table(),
                                                plan.enc, plan.tags, &ctx,
                                                &arena);
        });
    accepted = v.ok() && v->accepted;
  }
  // The tree-materializing route: on the served path only for rejected
  // documents (their diagnostic) or a fallback engine; otherwise timed on
  // its own for the xml, tree and membership layers.
  Result<pebbletc::KnownXmlParse> parsed =
      Timed(kSpanXmlParse, !fast || !accepted, bytes, id, epoch_, spans,
            [&] { return pebbletc::ParseXmlKnown(doc.xml, plan.tags, &arena); });
  if (!parsed.ok() || !parsed->unknown_tag.empty()) return;
  Result<BinaryTree> encoded =
      Timed(kSpanTreeEncode, !fast, static_cast<double>(parsed->tree.size()), id,
            epoch_, spans, [&] {
              return pebbletc::EncodeTree(parsed->tree, plan.enc, nullptr, &arena);
            });
  if (!encoded.ok()) return;
  Result<bool> member =
      Timed(kSpanAccepts, !fast, static_cast<double>(encoded->size()), id,
            epoch_, spans, [&] { return plan.engine.Accepts(*encoded, &ctx, &arena); });
  if (!fast) accepted = member.ok() && *member;
  if (!accepted && plan.dtd != nullptr) {
    Timed(kSpanDiagnostic, true, 0, id, epoch_, spans,
          [&] { return plan.dtd->Validate(parsed->tree).ok(); });
  }
}

void Replayer::ReplayTypecheck(int instance, uint64_t id,
                               std::vector<Span>* spans, LayerCounts* counts) {
  const ParsedInstance& p = inputs_.parsed[instance];
  const serve::ServeOptions& sopts = server_->options();
  // Alphabet assembly as ServerCore's CompileInstance does it: template
  // heads ∪ τ1 tags in, literal tags ∪ τ2 tags out.
  Alphabet in_tags = p.head_tags, out_tags = p.literal_tags;
  for (pebbletc::SymbolId t = 0; t < p.tau1->tags().size(); ++t) {
    in_tags.Intern(p.tau1->tags().Name(t));
  }
  for (pebbletc::SymbolId t = 0; t < p.tau2->tags().size(); ++t) {
    out_tags.Intern(p.tau2->tags().Name(t));
  }
  Result<EncodedAlphabet> in_enc = pebbletc::MakeEncodedAlphabet(in_tags);
  Result<EncodedAlphabet> out_enc = pebbletc::MakeEncodedAlphabet(out_tags);
  if (!in_enc.ok() || !out_enc.ok()) return;
  Result<PebbleTransducer> t =
      Timed(kSpanXsltCompile, true, 0, id, epoch_, spans, [&] {
        return pebbletc::CompileXslt(p.program, *in_enc, *out_enc);
      });
  if (!t.ok()) return;
  Result<Nbta> tau1 = Timed(kSpanDtdCompile, true, 0, id, epoch_, spans, [&] {
    return pebbletc::CompileDtdOver(*p.tau1, *in_enc);
  });
  Result<Nbta> tau2 = Timed(kSpanDtdCompile, true, 0, id, epoch_, spans, [&] {
    return pebbletc::CompileDtdOver(*p.tau2, *out_enc);
  });
  if (!tau1.ok() || !tau2.ok()) return;

  const pebbletc::Typechecker checker(*t, in_enc->ranked, out_enc->ranked);
  const TypecheckOptions served = ServerTypecheckOptions(sopts);
  // typecheck-cold empties the op cache before every request; each pass
  // replayed here starts from the same empty cache.
  auto cold_start = [&] {
    if (inputs_.cold) TaOpCache::Global().Clear();
  };
  cold_start();
  Result<TypecheckResult> full =
      Timed(kSpanTypecheck, true, 0, id, epoch_, spans,
            [&] { return checker.Typecheck(*tau1, *tau2, served); });
  if (full.ok()) {
    const pebbletc::TaOpCounters& c = full->op_counters;
    ++counts->typechecks;
    counts->det_pairs += c.det_pairs_expanded;
    counts->det_subsets += c.det_subsets_interned;
    counts->states += c.states_materialized;
    counts->intersections += c.intersections;
    counts->memo_hits += c.memo_hits;
    counts->memo_misses += c.memo_misses;
    counts->memo_evictions += c.memo_evictions;
  }
  TypecheckOptions refute = served;
  refute.run_complete_decision = false;
  cold_start();
  Timed(kSpanRefute, false, 0, id, epoch_, spans,
        [&] { return checker.Typecheck(*tau1, *tau2, refute).ok(); });
  TypecheckOptions complete = served;
  complete.refutation_max_trees = 0;
  cold_start();
  Timed(kSpanComplete, false, 0, id, epoch_, spans,
        [&] { return checker.Typecheck(*tau1, *tau2, complete).ok(); });

  TaOpContext ctx = ServerContext(sopts);
  ctx.budgets.memo = pebbletc::TaMemoMode::kOff;
  Result<Nbta> not_tau2 = Timed(kSpanComplement, false, 0, id, epoch_, spans, [&] {
    return pebbletc::ComplementNbta(pebbletc::NbtaIndex(*tau2, &ctx),
                                    out_enc->ranked, &ctx);
  });
  if (not_tau2.ok() && pebbletc::IsDownwardTransducer(*t)) {
    // Pass 2's input: the determinized, trimmed complement of τ2.
    Nbta trimmed = pebbletc::TrimNbta(*not_tau2);
    Result<pebbletc::Dbta> d = pebbletc::DeterminizeNbta(
        pebbletc::NbtaIndex(trimmed, &ctx), out_enc->ranked, &ctx);
    if (d.ok()) {
      Timed(kSpanDownward, false, 0, id, epoch_, spans, [&] {
        return pebbletc::DownwardProductAutomaton(*t, *d, in_enc->ranked, &ctx)
            .ok();
      });
    }
  }

  // Pass 1's inputs, each checked by the antichain engine. The pair counts
  // come from the same search run under a context the replay owns.
  TypecheckOptions antichain = served;
  antichain.inclusion = pebbletc::TaInclusionPath::kAntichain;
  const std::vector<BinaryTree> pass1 = pebbletc::EnumerateAcceptedTrees(
      *tau1, served.refutation_max_nodes, served.refutation_max_trees);
  const pebbletc::NbtaIndex tau2_idx(*tau2);
  for (const BinaryTree& input : pass1) {
    Timed(kSpanInclusion, false, 0, id, epoch_, spans,
          [&] { return checker.CheckOnInput(input, *tau2, antichain).ok(); });
    TaOpContext ictx = ServerContext(sopts);
    Result<pebbletc::OutputAutomaton> a_t = pebbletc::BuildOutputAutomaton(
        *t, input, ictx.budgets.max_configs, &ictx);
    if (!a_t.ok()) continue;
    const Nbta outputs = pebbletc::TopDownToNbta(a_t->automaton, &ictx);
    Result<pebbletc::NbtaInclusionResult> incl = pebbletc::NbtaIncludedIn(
        pebbletc::NbtaIndex(outputs, &ictx), tau2_idx, out_enc->ranked, &ictx);
    if (!incl.ok()) continue;
    ++counts->incl_checks;
    counts->incl_interned += ictx.counters.incl_pairs_interned;
    counts->incl_pruned += ictx.counters.incl_pairs_pruned;
  }
}

namespace {

struct SpanStats {
  std::vector<double> durations_ns;
  double total_ns = 0, work = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

MetricMap LayerMetrics(const std::vector<Span>& spans, const LayerCounts& counts,
                       const std::vector<double>& untraced_ms,
                       const std::vector<double>& traced_ms,
                       size_t op_cache_bytes) {
  std::vector<SpanStats> by_name(kNumSpanNames);
  std::map<uint64_t, double> on_path_ns, root_ns;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& st = by_name[s.name];
    st.durations_ns.push_back(d);
    st.total_ns += d;
    st.work += s.work;
    if (s.name == kSpanRoot) {
      root_ns[s.request] = d;
    } else if (s.on_path) {
      on_path_ns[s.request] += d;
    }
  }
  auto median = [&](SpanName n, double scale) {
    return Metric{Median(by_name[n].durations_ns) / scale, "",
                  by_name[n].durations_ns.size()};
  };
  auto rate_mb = [&](SpanName n) {
    return Metric{Ratio(by_name[n].work / 1e6, by_name[n].total_ns / 1e9),
                  "MB/s", by_name[n].durations_ns.size()};
  };
  auto per_node = [&](SpanName n) {
    return Metric{Ratio(by_name[n].total_ns, by_name[n].work), "ns/node",
                  by_name[n].durations_ns.size()};
  };
  auto count = [](double v, const char* unit = "count") {
    return Metric{v, unit, 0};
  };
  MetricMap m;
  auto put = [&](const std::string& name, Metric metric, const char* unit) {
    if (metric.unit.empty()) metric.unit = unit;
    m[name] = metric;
  };
  put("serve.protocol.decode_us", median(kSpanDecode, 1e3), "us");
  put("serve.protocol.encode_us", median(kSpanEncode, 1e3), "us");
  put("serve.validity.check_us", median(kSpanCheck, 1e3), "us");
  put("serve.validity.share",
      Metric{Ratio(by_name[kSpanCheck].total_ns, by_name[kSpanRoot].total_ns),
             "ratio", by_name[kSpanRoot].durations_ns.size()},
      "ratio");
  put("serve.admission.wait_us", median(kSpanAdmit, 1e3), "us");
  put("serve.admission.shed", count(counts.admission_shed), "count");
  put("serve.validate.plan_compile_ms", median(kSpanPlanCompile, 1e6), "ms");
  put("serve.validate.plan_compiles", count(counts.plan_compiles), "count");
  put("xml.parse_mb_per_s", rate_mb(kSpanXmlParse), "MB/s");
  put("tree.encode_ns_per_node", per_node(kSpanTreeEncode), "ns/node");
  put("ta.membership.stream_mb_per_s", rate_mb(kSpanStream), "MB/s");
  put("ta.membership.accepts_ns_per_node", per_node(kSpanAccepts), "ns/node");
  put("ta.membership.fast_docs", count(counts.fast_docs), "count");
  put("ta.membership.fallback_docs", count(counts.fallback_docs), "count");
  put("dtd.diagnostic_us", median(kSpanDiagnostic, 1e3), "us");
  put("dtd.compile_us", median(kSpanDtdCompile, 1e3), "us");
  put("query.xslt_compile_us", median(kSpanXsltCompile, 1e3), "us");
  put("core.typechecker.refute_ms", median(kSpanRefute, 1e6), "ms");
  put("core.typechecker.complete_ms", median(kSpanComplete, 1e6), "ms");
  for (const char* method :
       {"bounded-refutation", "downward-fastpath", "behavior-complete",
        "mso-complete", "degraded-enumeration", "none"}) {
    auto it = counts.methods.find(method);
    put(std::string("core.typechecker.method.") + method,
        count(it == counts.methods.end() ? 0 : it->second), "count");
  }
  put("core.typechecker.exhausted", count(counts.exhausted), "count");
  const double tcs = static_cast<double>(counts.typechecks);
  put("ta.nbta.complement_ms", median(kSpanComplement, 1e6), "ms");
  put("ta.nbta.det_pairs_expanded", count(Ratio(counts.det_pairs, tcs), "count/req"), "");
  put("ta.nbta.det_subsets_interned",
      count(Ratio(counts.det_subsets, tcs), "count/req"), "");
  put("ta.nbta.states_materialized", count(Ratio(counts.states, tcs), "count/req"), "");
  put("ta.nbta.intersections", count(Ratio(counts.intersections, tcs), "count/req"), "");
  put("core.downward.product_ms", median(kSpanDownward, 1e6), "ms");
  const double checks = static_cast<double>(counts.incl_checks);
  put("ta.inclusion.check_us", median(kSpanInclusion, 1e3), "us");
  put("ta.inclusion.pairs_interned",
      count(Ratio(counts.incl_interned, checks), "count/check"), "");
  put("ta.inclusion.pairs_pruned",
      count(Ratio(counts.incl_pruned, checks), "count/check"), "");
  put("ta.inclusion.prune_ratio",
      count(Ratio(counts.incl_pruned,
                  static_cast<double>(counts.incl_pruned + counts.incl_interned)),
            "ratio"),
      "");
  put("ta.op_cache.hits", count(Ratio(counts.memo_hits, tcs), "count/req"), "");
  put("ta.op_cache.misses", count(Ratio(counts.memo_misses, tcs), "count/req"), "");
  put("ta.op_cache.hit_ratio",
      count(Ratio(counts.memo_hits,
                  static_cast<double>(counts.memo_hits + counts.memo_misses)),
            "ratio"),
      "");
  put("ta.op_cache.evictions",
      count(Ratio(counts.memo_evictions, tcs), "count/req"), "");
  put("ta.op_cache.bytes", count(static_cast<double>(op_cache_bytes), "B"), "");

  // Root time the on-path replay does not account for, and the cost of
  // tracing: traced HandleFrame time against untraced HandleFrame time at
  // the same sequence positions.
  double roots = 0, uncovered = 0;
  for (const auto& [request, d] : root_ns) {
    roots += d;
    auto it = on_path_ns.find(request);
    uncovered += std::max(0.0, d - (it == on_path_ns.end() ? 0.0 : it->second));
  }
  put("trace.uncovered_share",
      Metric{Ratio(uncovered, roots), "ratio", root_ns.size()}, "");
  double traced = 0, untraced = 0;
  for (size_t i = 0; i < traced_ms.size() && i < untraced_ms.size(); ++i) {
    if (traced_ms[i] > 0 && untraced_ms[i] > 0) {
      traced += traced_ms[i];
      untraced += untraced_ms[i];
    }
  }
  put("trace.overhead_ratio", Metric{Ratio(traced, untraced), "ratio", 0}, "");
  put("trace.requests", count(static_cast<double>(root_ns.size())), "count");
  return m;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(f, "request\tspan\tparent\ton_path\tstart_ns\tend_ns\twork\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%s\t%s\t%d\t%llu\t%llu\t%.0f\n",
                 static_cast<unsigned long long>(s.request),
                 SpanNameString(s.name), s.name == kSpanRoot ? "-" : "root",
                 s.on_path ? 1 : 0, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.work);
  }
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace perfbench
