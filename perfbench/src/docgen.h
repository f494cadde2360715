// Seeded XML document generator for the validation workloads.
//
// Documents are produced by walking a DTD's content models, so a generated
// document is valid by construction; its size is steered in *bytes* (a node
// budget says little about bytes when tag names differ in length). An
// invalid document is a valid one with exactly one misplaced element. The
// expected verdict of every document is then confirmed by an independent
// validator — ParseXml plus SpecializedDtd::Accepts, the DTD's own
// possible-type DP — never by the compiled automaton the server runs.

#ifndef PERFBENCH_SRC_DOCGEN_H_
#define PERFBENCH_SRC_DOCGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/dtd/dtd.h"
#include "perfbench/src/common.h"

namespace perfbench {

/// A structured, deterministic DTD (sequence, optional and star content).
extern const char kLibraryDtd[];
/// A wide permissive DTD over 8 tags (any nesting except under `nil`, and
/// `doc` only at the root).
extern const char kWideDtd[];

class DocGenerator {
 public:
  /// `dtd` must be a finalized plain DTD.
  explicit DocGenerator(std::shared_ptr<const pebbletc::SpecializedDtd> dtd);

  /// A valid document of about `target_bytes` bytes (within one top-level
  /// item of it, and never below the DTD's minimal document).
  std::string Valid(size_t target_bytes, Rng* rng) const;

  /// A document of about `target_bytes` bytes with one misplaced element:
  /// a generated valid document with one extra element inserted where the
  /// DTD does not allow it. Fails if no such insertion is found.
  pebbletc::Result<std::string> Invalid(size_t target_bytes, Rng* rng) const;

 private:
  struct Node {
    pebbletc::SymbolId tag;
    std::vector<size_t> children;
    size_t bytes = 0;  // serialized size of the subtree
  };
  struct Tree {
    std::vector<Node> nodes;  // nodes[0] is the root
  };
  size_t Gen(Tree* tree, pebbletc::SymbolId type, size_t budget, int depth,
             Rng* rng) const;
  void Walk(Tree* tree, size_t parent, const pebbletc::RegexPtr& r,
            size_t* remaining, int depth, bool at_root, Rng* rng) const;
  size_t NodeBytes(pebbletc::SymbolId tag, bool leaf) const;
  std::string Render(const Tree& tree) const;
  Tree MakeTree(size_t target_bytes, Rng* rng) const;

  std::shared_ptr<const pebbletc::SpecializedDtd> dtd_;
  std::vector<size_t> min_bytes_;  // per type: smallest subtree it heads
};

/// The independent verdict: ParseXml + SpecializedDtd::Accepts. Fails on
/// malformed XML.
pebbletc::Result<bool> ReferenceAccepts(const pebbletc::SpecializedDtd& dtd,
                                        const std::string& xml);

/// Parses a DTD text that the benchmark itself defines; aborts on error.
std::shared_ptr<const pebbletc::SpecializedDtd> MustParseDtd(const char* text);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DOCGEN_H_
