// The serving layer's validation fast path (docs/VALIDATION.md): a named
// artifact compiled once into a ValidationPlan — tag table, Section 2.1
// encoding, and a compiled MembershipEngine — then applied per document with
// arena-scoped parsing, one document or a whole batch at a time.
//
// ValidateDoc preserves the wire semantics DoValidate always had (same
// verdicts, same diagnostics, same error codes for malformed documents); the
// plan only changes how the answer is computed: streaming DBTA fold when the
// engine compiled, NbtaAccepts fallback when determinization blew its
// budget. ValidateBatch runs one plan over N documents serially on the
// calling thread, reusing one arena: the daemon's concurrency comes from
// serving requests in parallel, not from fanning one request out.

#ifndef PEBBLETC_SERVE_VALIDATE_H_
#define PEBBLETC_SERVE_VALIDATE_H_

#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "src/ta/membership.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/serialize.h"

namespace pebbletc::serve {

/// A validation artifact compiled for repeated membership queries. Cheap to
/// copy (shared payloads); safe to share across threads once compiled.
struct ValidationPlan {
  /// Unranked tag table documents are resolved against (never mutated).
  Alphabet tags;
  /// The Section 2.1 encoding of `tags`; `engine` runs over `enc.ranked`.
  EncodedAlphabet enc;
  /// Compiled membership (fast DBTA table, or NbtaAccepts fallback).
  MembershipEngine engine;
  /// Set for DTD artifacts: renders per-node diagnostics for rejections.
  std::shared_ptr<const SpecializedDtd> dtd;
};

/// Compiles a DTD artifact into a plan. Determinization runs under `ctx`
/// budgets against `cache` (null = process-wide); a budget blowup degrades
/// the engine to the fallback route, while deadline/cancel propagate.
Result<ValidationPlan> CompileDtdPlan(
    std::shared_ptr<const SpecializedDtd> dtd, TaOpContext* ctx = nullptr,
    TaOpCache* cache = nullptr);

/// Compiles a schema artifact (ranked automaton + alphabet) into a plan.
Result<ValidationPlan> CompileSchemaPlan(const SchemaArtifact& schema,
                                         TaOpContext* ctx = nullptr,
                                         TaOpCache* cache = nullptr);

/// Per-document outcome. `code` is kOk whenever validation itself completed
/// (even with valid == false); a non-kOk code means this document's request
/// failed — malformed XML (kInvalidArgument, diagnostic prefixed
/// "document: "), deadline, cancellation, injected fault — and `diagnostic`
/// carries the Status message.
struct DocVerdict {
  StatusCode code = StatusCode::kOk;
  bool valid = false;
  std::string diagnostic;
};

/// Validates one document against a compiled plan. `mem` (null = default
/// heap) hosts every per-document allocation — tree, encoding, state
/// stacks — so a request loop can pass an Arena and Reset() between calls.
/// Checkpoints under `ctx`, so deadline/cancel/fault surface per document.
DocVerdict ValidateDoc(const ValidationPlan& plan, std::string_view document,
                       TaOpContext* ctx = nullptr,
                       std::pmr::memory_resource* mem = nullptr);

struct BatchResult {
  std::vector<DocVerdict> verdicts;  ///< one per input document, in order
  uint64_t fast_path_docs = 0;       ///< answered via the compiled table
  uint64_t fallback_docs = 0;        ///< answered via NbtaAccepts
};

/// Validates every document against one plan, in order, on the calling
/// thread under `ctx`; one arena hosts each document's allocations and is
/// reset between documents. Once the context's sticky interrupt trips
/// (deadline, disconnect cancellation), every not-yet-validated document
/// reports that code honestly instead of a fabricated verdict.
BatchResult ValidateBatch(const ValidationPlan& plan,
                          const std::vector<std::string>& documents,
                          TaOpContext* ctx = nullptr);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_VALIDATE_H_
