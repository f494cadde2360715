#include "perfbench/src/workloads.h"

#include <cmath>
#include <map>

#include "perfbench/src/docgen.h"
#include "src/ta/serialize.h"

namespace perfbench {

using pebbletc::Result;
using pebbletc::Status;
namespace serve = pebbletc::serve;

std::string XsltName(int instance) { return "t" + std::to_string(instance); }
std::string InDtdName(int instance) {
  return "t" + std::to_string(instance) + "_in";
}
std::string OutDtdName(int instance) {
  return "t" + std::to_string(instance) + "_out";
}

namespace {

// validate-large: 32 documents per DTD, 10 KiB to 900 KiB, log-uniform.
constexpr int kLargeDocsPerDtd = 32;
constexpr double kLargeMinBytes = 10 * 1024.0, kLargeMaxBytes = 900 * 1024.0;
// serve-mixed: a pool of 48 small documents per DTD, 0.5 to 5 KiB.
constexpr int kSmallDocsPerDtd = 48;
constexpr double kSmallMinBytes = 512.0, kSmallMaxBytes = 5 * 1024.0;
// typecheck-cold: 160 cycles of 19 generated instances after the 4 fixed
// ones — far more than a run gets through, since each is sent only once.
// The loop stops only after a whole round of 4 cycles, in which every
// 3-tag catalog proof has run once.
constexpr int kColdCycles = 160;
constexpr int kColdRound = 4;
// serve-mixed: the request mix repeats every 1000 requests; every 125th
// request re-installs the library DTD.
constexpr int kMixedCycle = 1000;
constexpr int kReloadEvery = 125;

void Encode(uint32_t id, decltype(serve::Request::body) body,
            PlannedRequest* out) {
  serve::Request request;
  request.header.request_id = id;
  request.body = std::move(body);
  // Request::body lists its alternatives in opcode order.
  request.header.opcode = static_cast<serve::Opcode>(request.body.index());
  out->op = request.header.opcode;
  serve::EncodeRequest(request, &out->payload);
}

PlannedRequest ValidateOf(const Inputs& in, int doc, uint32_t id) {
  PlannedRequest r;
  r.schema = in.docs[doc].schema;
  r.docs = {doc};
  r.doc_bytes = in.docs[doc].xml.size();
  Encode(id, serve::ValidateRequest{r.schema, in.docs[doc].xml}, &r);
  return r;
}

PlannedRequest TypecheckOf(int instance, uint32_t id) {
  PlannedRequest r;
  r.instance = instance;
  Encode(id,
         serve::TypecheckRequest{XsltName(instance), InDtdName(instance),
                                 OutDtdName(instance)},
         &r);
  return r;
}

PlannedRequest PlainOf(decltype(serve::Request::body) body, uint32_t id) {
  PlannedRequest r;
  Encode(id, std::move(body), &r);
  return r;
}

// `count` sizes stratified over [lo, hi] on a log scale: one draw from the
// middle half of each of `count` equal slices, so every seed gets nearly
// the same size profile.
std::vector<size_t> StratifiedSizes(int count, double lo, double hi, Rng* rng) {
  std::vector<size_t> sizes;
  for (int i = 0; i < count; ++i) {
    const double q = (i + 0.25 + rng->Unit() / 2) / count;
    sizes.push_back(static_cast<size_t>(lo * std::pow(hi / lo, q)));
  }
  return sizes;
}

// Documents for each DTD, `invalid` of them (spread over the size range)
// with one misplaced element.
Status AddDocs(Inputs* in, int per_dtd, double lo, double hi, int invalid,
               Rng* rng) {
  struct Planned {
    std::string schema;
    size_t bytes;
    bool valid = true;
  };
  std::vector<Planned> plan;
  for (const auto& [name, text] : in->dtds) {
    for (size_t bytes : StratifiedSizes(per_dtd, lo, hi, rng)) {
      plan.push_back({name, bytes});
    }
  }
  // Invalid documents: the middle one by size of each of `invalid` equal
  // slices of the plan, so their share of the bytes is the same every seed.
  std::vector<size_t> by_size(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) by_size[i] = i;
  std::sort(by_size.begin(), by_size.end(),
            [&](size_t a, size_t b) { return plan[a].bytes < plan[b].bytes; });
  for (int k = 0; k < invalid; ++k) {
    plan[by_size[plan.size() * (2 * k + 1) / (2 * invalid)]].valid = false;
  }
  std::map<std::string, DocGenerator> gens;
  for (const auto& [name, text] : in->dtds) {
    gens.emplace(name, DocGenerator(MustParseDtd(text.c_str())));
  }
  for (const Planned& p : plan) {
    const DocGenerator& gen = gens.at(p.schema);
    Doc doc{p.schema, {}, p.valid};
    if (p.valid) {
      doc.xml = gen.Valid(p.bytes, rng);
    } else {
      PEBBLETC_ASSIGN_OR_RETURN(doc.xml, gen.Invalid(p.bytes, rng));
    }
    in->docs.push_back(std::move(doc));
  }
  return Status::OK();
}

Status ParseAll(Inputs* in) {
  for (const TcInstance& inst : in->instances) {
    Result<ParsedInstance> parsed = ParseInstance(inst);
    if (!parsed.ok()) {
      return Status::Internal("instance does not parse: " +
                              parsed.status().ToString() + "\n" + inst.xslt +
                              inst.in_dtd + inst.out_dtd);
    }
    in->parsed.push_back(std::move(parsed).value());
  }
  return Status::OK();
}

Status MakeValidateLarge(uint64_t seed, Inputs* in) {
  Rng rng(seed);
  in->clients = 2;
  in->min_doc_bytes = static_cast<size_t>(kLargeMinBytes);
  in->max_doc_bytes = serve::ValidityOptions{}.max_document_bytes;
  in->dtds = {{"library", kLibraryDtd}, {"wide", kWideDtd}};
  // 64 documents, 3 of them (about 5%) invalid.
  PEBBLETC_RETURN_IF_ERROR(
      AddDocs(in, kLargeDocsPerDtd, kLargeMinBytes, kLargeMaxBytes, 3, &rng));
  std::vector<int> order(in->docs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.Shuffle(&order);
  for (size_t i = 0; i < order.size(); ++i) {
    in->sequence.push_back(ValidateOf(*in, order[i], static_cast<uint32_t>(i + 1)));
  }
  in->cycle = in->sequence.size();
  // Warm-up: the smallest valid document of each DTD compiles its plan.
  for (const auto& [name, text] : in->dtds) {
    int best = -1;
    for (size_t i = 0; i < in->docs.size(); ++i) {
      const Doc& d = in->docs[i];
      if (d.schema == name && d.valid &&
          (best < 0 || d.xml.size() < in->docs[best].xml.size())) {
        best = static_cast<int>(i);
      }
    }
    in->warmup.push_back(ValidateOf(*in, best, 0));
  }
  return Status::OK();
}

Status MakeTypecheckCold(uint64_t seed, Inputs* in) {
  Rng rng(seed);
  in->clients = 1;
  in->cold = true;
  in->instances = FixedInstances();
  // Each cycle, shuffled: 6 refutations of random structure, rotating over
  // rename and pre programs over 2 to 5 tags; the 6 catalog proofs over 2
  // tags, twice; and one catalog proof over 3 tags, rotating. Proofs over 3
  // tags cost 10-30 times those over 2, and proofs over 4 or more approach
  // or hit the 2 s default deadline: more of them would leave a run too few
  // requests to measure. Restructure-after (`post`) programs are left out:
  // the complete decision rejects them with kInvalidArgument ("too many MSO
  // tracks"), as it does Q2-good, whenever bounded refutation does not
  // settle them.
  const char* kKinds[] = {"rename", "pre"};
  for (int c = 0, combo = 0; c < kColdCycles; ++c) {
    std::vector<TcInstance> cycle;
    for (int k = 0; k < 6; ++k, ++combo) {
      cycle.push_back(GenerateInstance(kKinds[combo % 2], 2 + (combo / 2) % 4,
                                       /*holds=*/false, &rng));
    }
    for (int k = 0; k < 2; ++k) {
      for (TcInstance& t : CatalogProofs(2, &rng)) cycle.push_back(std::move(t));
    }
    cycle.push_back(std::move(CatalogProofs(3, &rng)[c % kColdRound]));
    rng.Shuffle(&cycle);
    for (TcInstance& t : cycle) in->instances.push_back(std::move(t));
  }
  PEBBLETC_RETURN_IF_ERROR(ParseAll(in));
  // Q2-good is rejected with kInvalidArgument ("too many MSO tracks"), a
  // known limitation of the complete decision. It is sent once after the
  // measured loop, not inside it, so no measured request fails.
  for (size_t i = 0; i < in->instances.size(); ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    const TcInstance& inst = in->instances[i];
    if (inst.kind == "q2" && inst.holds) {
      in->probes.push_back(TypecheckOf(static_cast<int>(i), id));
    } else {
      in->sequence.push_back(TypecheckOf(static_cast<int>(i), id));
    }
  }
  in->prefix = 3;  // the other fixed instances come first
  in->cycle = 19 * kColdRound;
  in->warmup.push_back(PlainOf(serve::PingRequest{}, 0));
  return Status::OK();
}

Status MakeServeMixed(uint64_t seed, Inputs* in) {
  Rng rng(seed);
  in->clients = 2;
  in->min_doc_bytes = static_cast<size_t>(kSmallMinBytes);
  in->max_doc_bytes = static_cast<size_t>(kSmallMaxBytes * 1.25);
  in->dtds = {{"library", kLibraryDtd}, {"wide", kWideDtd}};
  PEBBLETC_RETURN_IF_ERROR(
      AddDocs(in, kSmallDocsPerDtd, kSmallMinBytes, kSmallMaxBytes, 5, &rng));

  // A small typecheck pool, cheap once the op cache is warm: the
  // examples/artifacts rename pair and the catalog proofs over 2 tags.
  std::vector<TcInstance> fixed = FixedInstances();
  in->instances = {fixed[0], fixed[1]};
  for (TcInstance& t : CatalogProofs(2, &rng)) in->instances.push_back(std::move(t));
  PEBBLETC_RETURN_IF_ERROR(ParseAll(in));
  // Zipf(1.1) popularity over a seeded ranking of the pool.
  std::vector<int> rank(in->instances.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = static_cast<int>(i);
  rng.Shuffle(&rank);
  std::vector<double> cdf;
  double total = 0;
  for (size_t k = 0; k < rank.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf.push_back(total);
  }

  std::string dtd_artifact;
  {
    std::string payload;
    pebbletc::SerializeDtdArtifact(*MustParseDtd(kLibraryDtd), &payload);
    pebbletc::WrapTaArtifact(pebbletc::TaArtifactKind::kDtd, payload,
                             &dtd_artifact);
  }
  // Documents are taken in turn from seeded orders of the whole pool and of
  // each DTD's part of it, so every document is sent about equally often.
  std::vector<int> all_docs, by_schema[2];
  for (size_t i = 0; i < in->docs.size(); ++i) {
    all_docs.push_back(static_cast<int>(i));
    by_schema[in->docs[i].schema == "library" ? 0 : 1].push_back(
        static_cast<int>(i));
  }
  rng.Shuffle(&all_docs);
  rng.Shuffle(&by_schema[0]);
  rng.Shuffle(&by_schema[1]);
  size_t next_doc = 0, next_in_schema[2] = {0, 0};

  // Exact counts of each request kind in every cycle of 1000, beside the 8
  // reloads: 700 validate, 200 batch, 40 typecheck, 32 ping, 20 stats.
  // Validation is the service's highest-volume request (docs/VALIDATION.md);
  // the counts themselves are assumptions, not measured traffic (README.md).
  // Batches carry 2 to 64 documents, evenly spread.
  enum Kind { kValidate, kBatch, kTypecheck, kPing, kStats };
  const int slots = kMixedCycle - kMixedCycle / kReloadEvery;
  std::vector<Kind> kinds;
  const std::pair<Kind, int> shares[] = {
      {kValidate, 700}, {kBatch, 200}, {kTypecheck, 40}, {kPing, 32}, {kStats, 20}};
  for (const auto& [kind, count] : shares) kinds.insert(kinds.end(), count, kind);
  if (static_cast<int>(kinds.size()) != slots) {
    return Status::Internal("serve-mixed shares do not fill a cycle");
  }
  rng.Shuffle(&kinds);
  int batches = 0;
  for (int i = 0, k = 0; i < kMixedCycle; ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    if (i % kReloadEvery == kReloadEvery - 1) {
      PlannedRequest r =
          PlainOf(serve::LoadArtifactRequest{"library", dtd_artifact}, id);
      r.schema = "library";
      in->sequence.push_back(std::move(r));
      continue;
    }
    switch (kinds[k++]) {
      case kValidate:
        in->sequence.push_back(
            ValidateOf(*in, all_docs[next_doc++ % all_docs.size()], id));
        break;
      case kBatch: {
        const int schema = batches % 2;
        const int n = 2 + batches * 62 / (shares[1].second - 1);
        ++batches;
        const std::vector<int>& pool = by_schema[schema];
        PlannedRequest r;
        serve::ValidateBatchRequest batch;
        r.schema = batch.schema = in->docs[pool[0]].schema;
        for (int d = 0; d < n; ++d) {
          const int doc = pool[next_in_schema[schema]++ % pool.size()];
          r.docs.push_back(doc);
          r.doc_bytes += in->docs[doc].xml.size();
          batch.documents.push_back(in->docs[doc].xml);
        }
        Encode(id, std::move(batch), &r);
        in->sequence.push_back(std::move(r));
        break;
      }
      case kTypecheck: {
        const double z = rng.Unit() * total;
        size_t rk = 0;
        while (rk + 1 < cdf.size() && cdf[rk] < z) ++rk;
        in->sequence.push_back(TypecheckOf(rank[rk], id));
        break;
      }
      case kPing:
        in->sequence.push_back(PlainOf(serve::PingRequest{}, id));
        break;
      case kStats:
        in->sequence.push_back(PlainOf(serve::StatsRequest{}, id));
        break;
    }
  }
  in->cycle = in->sequence.size();
  // Warm-up: compile both plans and run every pool instance once.
  for (const std::vector<int>& pool : by_schema) {
    for (int doc : pool) {
      if (in->docs[doc].valid) {
        in->warmup.push_back(ValidateOf(*in, doc, 0));
        break;
      }
    }
  }
  for (size_t i = 0; i < in->instances.size(); ++i) {
    in->warmup.push_back(TypecheckOf(static_cast<int>(i), 0));
  }
  return Status::OK();
}

}  // namespace

Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  if (workload == "validate-large") {
    PEBBLETC_RETURN_IF_ERROR(MakeValidateLarge(seed, &in));
  } else if (workload == "typecheck-cold") {
    PEBBLETC_RETURN_IF_ERROR(MakeTypecheckCold(seed, &in));
  } else if (workload == "serve-mixed") {
    PEBBLETC_RETURN_IF_ERROR(MakeServeMixed(seed, &in));
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return in;
}

Status SelfTest(const Inputs& in) {
  std::map<std::string, std::shared_ptr<const pebbletc::SpecializedDtd>> dtds;
  for (const auto& [name, text] : in.dtds) dtds[name] = MustParseDtd(text.c_str());
  for (size_t i = 0; i < in.docs.size(); ++i) {
    const Doc& d = in.docs[i];
    if (d.xml.size() < in.min_doc_bytes || d.xml.size() > in.max_doc_bytes) {
      return Status::Internal("document " + std::to_string(i) + " has " +
                              std::to_string(d.xml.size()) +
                              " bytes, outside its band");
    }
    Result<bool> verdict = ReferenceAccepts(*dtds.at(d.schema), d.xml);
    if (!verdict.ok() || *verdict != d.valid) {
      return Status::Internal(
          "document " + std::to_string(i) + " (" + d.schema + ") expected " +
          (d.valid ? "valid" : "invalid") + ", reference validator says " +
          (verdict.ok() ? (*verdict ? "valid" : "invalid")
                        : verdict.status().ToString()));
    }
  }
  if (in.parsed.size() != in.instances.size()) {
    return Status::Internal("typecheck instances were not all parsed");
  }
  return Status::OK();
}

Status LoadRegistry(const Inputs& in, serve::ServerCore* server) {
  for (const auto& [name, text] : in.dtds) {
    PEBBLETC_RETURN_IF_ERROR(server->registry().PutDtdText(name, text));
  }
  for (size_t i = 0; i < in.instances.size(); ++i) {
    const int n = static_cast<int>(i);
    const TcInstance& t = in.instances[i];
    PEBBLETC_RETURN_IF_ERROR(server->registry().PutXsltText(XsltName(n), t.xslt));
    PEBBLETC_RETURN_IF_ERROR(server->registry().PutDtdText(InDtdName(n), t.in_dtd));
    PEBBLETC_RETURN_IF_ERROR(
        server->registry().PutDtdText(OutDtdName(n), t.out_dtd));
  }
  return Status::OK();
}

}  // namespace perfbench
