#include "perfbench/src/docgen.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/xml/xml.h"

namespace perfbench {

using pebbletc::Regex;
using pebbletc::RegexPtr;
using pebbletc::Result;
using pebbletc::SpecializedDtd;
using pebbletc::Status;
using pebbletc::SymbolId;

const char kLibraryDtd[] = R"(library := meta.shelf*
meta := name.(note|()).stamp
shelf := label.(book|journal)*
book := title.author*.(isbn|()).chapter*
chapter := title.(para|figure)*
journal := title.issue*
issue := title.(volume|()).article*
article := title.author*.para*
figure := caption
caption := ()
para := ()
title := ()
author := ()
isbn := ()
name := ()
note := ()
stamp := ()
label := ()
volume := ()
)";

const char kWideDtd[] = R"(doc := (sec|grp|box|itm|val|ref|nil)*
sec := (sec|grp|box|itm|val|ref|nil)*
grp := (sec|grp|box|itm|val|ref|nil)*
box := (sec|grp|box|itm|val|ref|nil)*
itm := (sec|grp|box|itm|val|ref|nil)*
val := (sec|grp|box|itm|val|ref|nil)*
ref := (sec|grp|box|itm|val|ref|nil)*
nil := ()
)";

namespace {

constexpr size_t kInf = std::numeric_limits<size_t>::max() / 4;
// Nesting beyond this depth only takes minimal derivations.
constexpr int kMaxDepth = 40;
// A non-root star stops adding items once less than this many bytes remain.
constexpr size_t kMinStarBudget = 64;

void Alternatives(const RegexPtr& r, std::vector<RegexPtr>* out) {
  if (r->kind() == Regex::Kind::kUnion) {
    Alternatives(r->left(), out);
    Alternatives(r->right(), out);
  } else {
    out->push_back(r);
  }
}

size_t MinRegexBytes(const RegexPtr& r, const std::vector<size_t>& min_type) {
  switch (r->kind()) {
    case Regex::Kind::kEmptySet:
      return kInf;
    case Regex::Kind::kEpsilon:
    case Regex::Kind::kStar:
      return 0;
    case Regex::Kind::kSymbol:
      return min_type[r->symbol()];
    case Regex::Kind::kConcat:
      return std::min(kInf, MinRegexBytes(r->left(), min_type) +
                                MinRegexBytes(r->right(), min_type));
    case Regex::Kind::kUnion:
      return std::min(MinRegexBytes(r->left(), min_type),
                      MinRegexBytes(r->right(), min_type));
  }
  return kInf;
}

}  // namespace

std::shared_ptr<const SpecializedDtd> MustParseDtd(const char* text) {
  Result<SpecializedDtd> dtd = pebbletc::ParseDtd(text);
  if (!dtd.ok()) {
    std::fprintf(stderr, "perfbench: bad built-in DTD: %s\n",
                 dtd.status().ToString().c_str());
    std::exit(3);
  }
  return std::make_shared<const SpecializedDtd>(std::move(dtd).value());
}

Result<bool> ReferenceAccepts(const SpecializedDtd& dtd, const std::string& xml) {
  pebbletc::Alphabet tags = dtd.tags();
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::UnrankedTree tree,
                            pebbletc::ParseXml(xml, &tags));
  if (tags.size() != dtd.tags().size()) return false;  // undeclared tag
  return dtd.Accepts(tree);
}

DocGenerator::DocGenerator(std::shared_ptr<const SpecializedDtd> dtd)
    : dtd_(std::move(dtd)) {
  // Plain DTDs only: type ids are tag ids.
  min_bytes_.assign(dtd_->num_types(), kInf);
  for (bool changed = true; changed;) {
    changed = false;
    for (SymbolId t = 0; t < dtd_->num_types(); ++t) {
      const size_t inner = MinRegexBytes(dtd_->ContentModel(t), min_bytes_);
      if (inner >= kInf) continue;
      const size_t bytes =
          inner == 0 ? NodeBytes(t, true) : NodeBytes(t, false) + inner;
      if (bytes < min_bytes_[t]) {
        min_bytes_[t] = bytes;
        changed = true;
      }
    }
  }
}

size_t DocGenerator::NodeBytes(SymbolId tag, bool leaf) const {
  const size_t n = dtd_->tags().Name(tag).size();
  return leaf ? n + 3 : 2 * n + 5;  // <t/>  or  <t></t>
}

size_t DocGenerator::Gen(Tree* tree, SymbolId type, size_t budget, int depth,
                         Rng* rng) const {
  const size_t self = tree->nodes.size();
  tree->nodes.push_back(Node{dtd_->TagOfType(type), {}, 0});
  const size_t frame = NodeBytes(type, false);
  size_t remaining = budget > frame ? budget - frame : 0;
  Walk(tree, self, dtd_->ContentModel(type), &remaining, depth + 1,
       /*at_root=*/depth == 0, rng);
  size_t bytes = NodeBytes(type, true);
  if (!tree->nodes[self].children.empty()) {
    bytes = frame;
    for (size_t c : tree->nodes[self].children) bytes += tree->nodes[c].bytes;
  }
  tree->nodes[self].bytes = bytes;
  return self;
}

void DocGenerator::Walk(Tree* tree, size_t parent, const RegexPtr& r,
                        size_t* remaining, int depth, bool at_root,
                        Rng* rng) const {
  if (depth > kMaxDepth) *remaining = 0;
  switch (r->kind()) {
    case Regex::Kind::kEmptySet:
    case Regex::Kind::kEpsilon:
      return;
    case Regex::Kind::kSymbol: {
      const size_t child = Gen(tree, r->symbol(), *remaining, depth, rng);
      tree->nodes[parent].children.push_back(child);
      const size_t used = tree->nodes[child].bytes;
      *remaining = used < *remaining ? *remaining - used : 0;
      return;
    }
    case Regex::Kind::kConcat:
      Walk(tree, parent, r->left(), remaining, depth, at_root, rng);
      Walk(tree, parent, r->right(), remaining, depth, at_root, rng);
      return;
    case Regex::Kind::kUnion: {
      std::vector<RegexPtr> alts;
      Alternatives(r, &alts);
      RegexPtr pick = alts[0];
      if (*remaining == 0) {
        for (const RegexPtr& a : alts) {
          if (MinRegexBytes(a, min_bytes_) < MinRegexBytes(pick, min_bytes_)) {
            pick = a;
          }
        }
      } else {
        pick = alts[rng->Below(alts.size())];
      }
      Walk(tree, parent, pick, remaining, depth, at_root, rng);
      return;
    }
    case Regex::Kind::kStar: {
      if (at_root) {
        // The root's star fills the document up to its byte target, in
        // items of at most an eighth of it, so the result overshoots the
        // target by at most one item.
        const size_t cap = std::max<size_t>(*remaining / 8, 256);
        int idle = 0;
        while (*remaining > 0 && idle < 64) {
          size_t sub = std::min(*remaining, cap);
          const size_t start = sub;
          Walk(tree, parent, r->left(), &sub, depth, false, rng);
          const size_t used = start - sub;
          idle = used == 0 ? idle + 1 : 0;
          *remaining -= std::min(*remaining, std::max<size_t>(used, 1));
        }
        return;
      }
      if (*remaining < kMinStarBudget) return;
      const int64_t items = rng->Range(1, 6);
      const size_t share = *remaining / static_cast<size_t>(items);
      for (int64_t i = 0; i < items && *remaining > 0; ++i) {
        size_t sub = std::min(share, *remaining);
        const size_t start = sub;
        Walk(tree, parent, r->left(), &sub, depth, false, rng);
        *remaining -= std::min(*remaining, start - sub);
      }
      return;
    }
  }
}

DocGenerator::Tree DocGenerator::MakeTree(size_t target_bytes, Rng* rng) const {
  Tree tree;
  Gen(&tree, dtd_->root_types()[0], target_bytes, 0, rng);
  return tree;
}

std::string DocGenerator::Render(const Tree& tree) const {
  std::string out;
  out.reserve(tree.nodes[0].bytes);
  // Iterative pre/post-order walk: (node, next child index).
  std::vector<std::pair<size_t, size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    const Node& n = tree.nodes[node];
    const std::string& name = dtd_->tags().Name(n.tag);
    if (next == 0) {
      out += '<';
      out += name;
      if (n.children.empty()) {
        out += "/>";
        stack.pop_back();
        continue;
      }
      out += '>';
    }
    if (next < n.children.size()) {
      const size_t child = n.children[next++];
      stack.emplace_back(child, 0);
      continue;
    }
    out += "</";
    out += name;
    out += '>';
    stack.pop_back();
  }
  return out;
}

std::string DocGenerator::Valid(size_t target_bytes, Rng* rng) const {
  return Render(MakeTree(target_bytes, rng));
}

Result<std::string> DocGenerator::Invalid(size_t target_bytes, Rng* rng) const {
  const Tree base = MakeTree(target_bytes, rng);
  for (int attempt = 0; attempt < 200; ++attempt) {
    Tree tree = base;
    const size_t at = rng->Below(tree.nodes.size());
    const SymbolId tag = static_cast<SymbolId>(rng->Below(dtd_->num_types()));
    // The inserted element is itself a minimal valid subtree, so its
    // position is the document's only defect.
    const size_t extra = Gen(&tree, tag, 0, kMaxDepth / 2, rng);
    std::vector<size_t>& kids = tree.nodes[at].children;
    kids.insert(kids.begin() + static_cast<ptrdiff_t>(rng->Below(kids.size() + 1)),
                extra);
    std::string xml = Render(tree);
    Result<bool> ok = ReferenceAccepts(*dtd_, xml);
    if (ok.ok() && !*ok) return xml;
  }
  return Status::Internal("no misplaced-element mutation found");
}

}  // namespace perfbench
