// Tiered trust-boundary validation for the typecheck service, in the style
// of RethinkDB's leveled `validate_pb` checks (docs/SERVING.md): every
// decoded request passes through a configurable strictness tier *before*
// dispatch touches the registry or any automata op, and every rejection is
// a structured error (kInvalidArgument / kParseError mapped to
// WireStatus::kValidationFailed), never a crash.
//
// The tiers are cumulative:
//
//   kOff   — protocol decoding only (the wire parser's own range checks;
//            they can never be disabled). Malformed bytes are still rejected;
//            semantically absurd but well-formed requests pass through and
//            fail later, inside dispatch, with coarser errors.
//   kBasic — cheap shape checks: registry names are non-empty, length-capped
//            and drawn from a conservative charset; documents and artifact
//            payloads respect size caps; requested deadlines respect the
//            server maximum. O(field length), no parsing.
//   kFull  — structural checks on artifacts: containers are unwrapped and
//            their payloads completely deserialized (every range/rank/arity
//            invariant enforced by src/ta/serialize.cc). XML documents are
//            *not* parsed here: dispatch's single parse (the streaming
//            validator, or ParseXmlKnown on the fallback route) decides
//            well-formedness, and at kFull a malformed document is answered
//            with this tier's kValidationFailed status and
//            "document is not well-formed: ..." detail. After kFull, dispatch
//            can assume every artifact byte is structurally sound; what
//            remains is semantic (name resolution, kind compatibility,
//            budgets) plus the one document parse.

#ifndef PEBBLETC_SERVE_VALIDITY_H_
#define PEBBLETC_SERVE_VALIDITY_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/serve/protocol.h"

namespace pebbletc::serve {

enum class ValidityLevel : uint8_t {
  kOff = 0,
  kBasic = 1,
  kFull = 2,
};

struct ValidityOptions {
  ValidityLevel level = ValidityLevel::kFull;
  /// Caps enforced at kBasic and above.
  uint32_t max_name_bytes = 256;
  uint32_t max_document_bytes = 1u << 20;
  uint32_t max_artifact_bytes = 2u << 20;
  /// Most documents one kValidateBatch request may carry. Bounds the work a
  /// single admission slot can claim; every document still respects
  /// max_document_bytes individually.
  uint32_t max_batch_docs = 64;
  /// Largest deadline a client may request; larger asks are rejected (not
  /// clamped — a client that asks for an hour should learn the server's
  /// policy, not silently get two seconds).
  uint32_t max_deadline_ms = 30000;
};

/// Validates a decoded request at the configured tier. OK means "safe to
/// dispatch at this tier's guarantees"; any violation returns
/// kInvalidArgument (shape/size/charset) or kParseError (artifact structure,
/// kFull only) with a message naming the offending field. Document
/// well-formedness is not checked here (see the kFull note above).
Status CheckRequest(const Request& request, const ValidityOptions& options);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_VALIDITY_H_
