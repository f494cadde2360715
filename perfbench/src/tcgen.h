// Typecheck instances with known answers.
//
// Generated instances pair an XSLT program over 2–5 input tags with an
// input DTD τ1 and an output DTD τ2:
//
//   * rename programs map each input tag to its own output tag;
//   * restructure programs also emit a static leaf before (`pre`, still a
//     downward transducer) or after (`post`, needs up-moves) the children.
//
// τ2 is either the exact image of τ1 under the program (the instance
// typechecks) or that image with the root's content model tightened (a
// known counterexample). Each content model names every child type at most once,
// so dropping a star, an optional or one branch of a choice always removes
// words that some τ1 document produces. The paper's fixed instances — the
// rename pair shipped in examples/artifacts and Example 4.3's Q2 against its
// good and bad output DTDs — ride along.

#ifndef PERFBENCH_SRC_TCGEN_H_
#define PERFBENCH_SRC_TCGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "perfbench/src/common.h"

namespace perfbench {

struct TcInstance {
  std::string kind;  ///< "rename", "pre", "post", "artifacts-rename", "q2"
  bool holds = true;  ///< known answer: T(τ1) ⊆ τ2
  std::string xslt;
  std::string in_dtd;
  std::string out_dtd;
};

/// The four fixed instances from the paper and the repository's examples.
std::vector<TcInstance> FixedInstances();

/// One generated instance of random structure: `kind` is "rename", "pre"
/// or "post".
TcInstance GenerateInstance(const std::string& kind, int tags, bool holds,
                            Rng* rng);

/// Proofs of fixed structure over `tags` (2 or 3) input tags, one per
/// catalog entry: three τ1 shapes over 2 tags or two over 3, each under a
/// rename and a pre program. Only the tag names come from `rng`, so their
/// cost does not depend on the seed.
std::vector<TcInstance> CatalogProofs(int tags, Rng* rng);

/// An instance parsed on the client side, for the counterexample re-check
/// and the traced replay.
struct ParsedInstance {
  pebbletc::XsltProgram program;
  pebbletc::Alphabet head_tags;     ///< as ParseXslt interned them
  pebbletc::Alphabet literal_tags;  ///< as ParseXslt interned them
  std::shared_ptr<const pebbletc::SpecializedDtd> tau1;
  std::shared_ptr<const pebbletc::SpecializedDtd> tau2;
};

pebbletc::Result<ParsedInstance> ParseInstance(const TcInstance& instance);

/// Re-checks a counterexample outside the typechecker: `input_xml` must be a
/// τ1 document and ApplyXsltReference of it must be rejected by τ2. Returns
/// an error naming the first check that failed.
pebbletc::Status RecheckCounterexample(const ParsedInstance& instance,
                                       const std::string& input_xml);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TCGEN_H_
