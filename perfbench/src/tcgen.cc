#include "perfbench/src/tcgen.h"

#include "perfbench/src/docgen.h"
#include "src/xml/xml.h"

namespace perfbench {

using pebbletc::Result;
using pebbletc::Status;

std::vector<TcInstance> FixedInstances() {
  const char kRename[] = "template a { b { apply } }\ntemplate c { d }\n";
  const char kRenameIn[] = "a := c\nc := ()\n";
  const char kQ2[] =
      "template root { result { b; apply; b; apply; b; apply } }\n"
      "template a { a }\n";
  const char kQ2In[] = "root := a*\na := ()\n";
  return {
      {"artifacts-rename", true, kRename, kRenameIn, "b := d\nd := ()\n"},
      {"artifacts-rename", false, kRename, kRenameIn, "b := e\ne := ()\n"},
      {"q2", true, kQ2, kQ2In, "result := b.a*.b.a*.b.a*\nb := ()\na := ()\n"},
      {"q2", false, kQ2, kQ2In, "result := b.a*.b.a*.b\nb := ()\na := ()\n"},
  };
}

namespace {

// One content-model item over child types `x` (and `y` for choices).
struct Item {
  enum Kind { kReq, kStar, kOpt, kAlt, kAltStar } kind;
  int x;
  int y = -1;
};

bool Tightenable(const Item& it) { return it.kind != Item::kReq; }

std::string RenderItem(const Item& it, const std::vector<std::string>& names) {
  const std::string& x = names[it.x];
  switch (it.kind) {
    case Item::kReq:
      return x;
    case Item::kStar:
      return x + "*";
    case Item::kOpt:
      return "(" + x + "|())";
    case Item::kAlt:
      return "(" + x + "|" + names[it.y] + ")";
    case Item::kAltStar:
      return "(" + x + "|" + names[it.y] + ")*";
  }
  return x;
}

// `parts` joined by '.', or "()" when empty.
std::string Concat(const std::vector<std::string>& parts) {
  if (parts.empty()) return "()";
  std::string out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) out += "." + parts[i];
  return out;
}

// An instance's structure: the content items of each input type (type 0 is
// the root) and which templates emit a static leaf before or after the
// children.
struct Shape {
  std::vector<std::vector<Item>> content;
  std::vector<bool> pre, post;
};

Shape RandomShape(const std::string& kind, int tags, Rng* rng) {
  // Type i draws children from the types after it (acyclic, so every type
  // is productive); each type after the root gets one required parent, so
  // every type is reachable.
  std::vector<std::vector<int>> kids(tags);
  for (int j = 1; j < tags; ++j) kids[rng->Below(j)].push_back(j);
  for (int i = 0; i < tags; ++i) {
    for (int j = i + 1; j < tags; ++j) {
      bool present = false;
      for (int k : kids[i]) present |= k == j;
      if (!present && rng->Chance(0.3)) kids[i].push_back(j);
    }
    rng->Shuffle(&kids[i]);
  }
  Shape shape;
  shape.content.resize(tags);
  for (int i = 0; i < tags; ++i) {
    for (size_t k = 0; k < kids[i].size(); ++k) {
      const uint64_t pick = rng->Below(5);
      if ((pick == 3 || pick == 4) && k + 1 < kids[i].size()) {
        shape.content[i].push_back(Item{pick == 3 ? Item::kAlt : Item::kAltStar,
                                        kids[i][k], kids[i][k + 1]});
        ++k;
      } else {
        shape.content[i].push_back(
            Item{pick == 0 ? Item::kReq : pick == 1 || pick == 3 ? Item::kStar
                                                                 : Item::kOpt,
                 kids[i][k]});
      }
    }
  }
  // Below the root every item may be absent, and the root requires at most
  // one item, so the smallest tree with any given root child has at most
  // three elements. Tightening the root's content then leaves a
  // counterexample that bounded refutation's 15-node trees reach.
  int required = 0;
  for (int i = 0; i < tags; ++i) {
    for (Item& it : shape.content[i]) {
      if (it.kind != Item::kReq && it.kind != Item::kAlt) continue;
      if (i == 0 && required++ == 0) continue;
      it.kind = it.kind == Item::kReq ? Item::kOpt : Item::kAltStar;
    }
  }
  bool any = false;
  for (const Item& it : shape.content[0]) any |= Tightenable(it);
  if (!any) shape.content[0][0].kind = Item::kStar;
  // `pre` puts a static leaf before the children of some templates (the
  // root's always), `post` one after them.
  shape.pre.assign(tags, false);
  shape.post.assign(tags, false);
  for (int i = 0; i < tags; ++i) {
    const bool on = i == 0 || rng->Chance(0.5);
    if (kind == "pre") shape.pre[i] = on;
    if (kind == "post") shape.post[i] = on;
  }
  return shape;
}

TcInstance Render(const std::string& kind, const Shape& shape, bool holds,
                  Rng* rng) {
  const int tags = static_cast<int>(shape.content.size());
  // Tag names carry a per-instance stamp so every instance is textually
  // distinct; the automata depend only on the structure.
  const std::string stamp = std::to_string(rng->Below(1000000));
  std::vector<std::string> in(tags), out(tags);
  for (int i = 0; i < tags; ++i) {
    in[i] = "i" + std::to_string(i) + "x" + stamp;
    out[i] = "o" + std::to_string(i) + "x" + stamp;
  }
  const std::string pre_tag = "s0x" + stamp, post_tag = "s1x" + stamp;

  TcInstance inst;
  inst.kind = kind;
  inst.holds = holds;
  for (int i = 0; i < tags; ++i) {
    std::string body = shape.pre[i] ? pre_tag + "; apply" : "apply";
    if (shape.post[i]) body += "; " + post_tag;
    inst.xslt += "template " + in[i] + " { " + out[i] + " { " + body + " } }\n";
    std::vector<std::string> parts;
    for (const Item& it : shape.content[i]) parts.push_back(RenderItem(it, in));
    inst.in_dtd += in[i] + " := " + Concat(parts) + "\n";
  }

  // τ2: the image, or the image with one item of the root's content model
  // tightened to a strict sublanguage.
  int tight_type = -1;
  size_t tight_item = 0;
  if (!holds) {
    std::vector<size_t> candidates;
    for (size_t k = 0; k < shape.content[0].size(); ++k) {
      if (Tightenable(shape.content[0][k])) candidates.push_back(k);
    }
    tight_type = 0;
    tight_item = candidates[rng->Below(candidates.size())];
  }
  bool uses_pre = false, uses_post = false;
  for (int i = 0; i < tags; ++i) {
    std::vector<std::string> parts;
    if (shape.pre[i]) parts.push_back(pre_tag);
    for (size_t k = 0; k < shape.content[i].size(); ++k) {
      Item it = shape.content[i][k];
      if (i == tight_type && k == tight_item) {
        if (it.kind == Item::kStar || it.kind == Item::kOpt) continue;
        it.kind = it.kind == Item::kAlt ? Item::kReq : Item::kStar;
      }
      parts.push_back(RenderItem(it, out));
    }
    if (shape.post[i]) parts.push_back(post_tag);
    uses_pre |= shape.pre[i];
    uses_post |= shape.post[i];
    inst.out_dtd += out[i] + " := " + Concat(parts) + "\n";
  }
  if (uses_pre) inst.out_dtd += pre_tag + " := ()\n";
  if (uses_post) inst.out_dtd += post_tag + " := ()\n";
  return inst;
}

}  // namespace

TcInstance GenerateInstance(const std::string& kind, int tags, bool holds,
                            Rng* rng) {
  return Render(kind, RandomShape(kind, tags, rng), holds, rng);
}

std::vector<TcInstance> CatalogProofs(int tags, Rng* rng) {
  // Over 2 tags: the root's one child is required, starred or optional.
  // Over 3 tags: a chain of stars, and a required child beside a starred one.
  const std::vector<std::vector<std::vector<Item>>> contents =
      tags == 2 ? std::vector<std::vector<std::vector<Item>>>{
                      {{{Item::kReq, 1}}, {}},
                      {{{Item::kStar, 1}}, {}},
                      {{{Item::kOpt, 1}}, {}}}
                : std::vector<std::vector<std::vector<Item>>>{
                      {{{Item::kStar, 1}}, {{Item::kStar, 2}}, {}},
                      {{{Item::kReq, 1}, {Item::kStar, 2}}, {}, {}}};
  std::vector<TcInstance> out;
  for (const auto& content : contents) {
    for (const char* kind : {"rename", "pre"}) {
      Shape shape;
      shape.content = content;
      shape.pre.assign(content.size(), false);
      shape.post.assign(content.size(), false);
      shape.pre[0] = std::string(kind) == "pre";
      out.push_back(Render(kind, shape, /*holds=*/true, rng));
    }
  }
  return out;
}

Result<ParsedInstance> ParseInstance(const TcInstance& instance) {
  ParsedInstance p;
  PEBBLETC_ASSIGN_OR_RETURN(
      p.program,
      pebbletc::ParseXslt(instance.xslt, &p.head_tags, &p.literal_tags));
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::SpecializedDtd tau1,
                            pebbletc::ParseDtd(instance.in_dtd));
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::SpecializedDtd tau2,
                            pebbletc::ParseDtd(instance.out_dtd));
  p.tau1 = std::make_shared<const pebbletc::SpecializedDtd>(std::move(tau1));
  p.tau2 = std::make_shared<const pebbletc::SpecializedDtd>(std::move(tau2));
  return p;
}

Status RecheckCounterexample(const ParsedInstance& instance,
                             const std::string& input_xml) {
  Result<bool> in_ok = ReferenceAccepts(*instance.tau1, input_xml);
  if (!in_ok.ok() || !*in_ok) {
    return Status::Internal("counterexample input is not a τ1 document: " +
                            input_xml);
  }
  pebbletc::Alphabet in_tags = instance.head_tags;
  PEBBLETC_ASSIGN_OR_RETURN(pebbletc::UnrankedTree doc,
                            pebbletc::ParseXml(input_xml, &in_tags));
  PEBBLETC_ASSIGN_OR_RETURN(
      pebbletc::UnrankedTree image,
      pebbletc::ApplyXsltReference(instance.program, doc, in_tags));
  const std::string image_xml =
      pebbletc::XmlString(image, instance.literal_tags);
  Result<bool> out_ok = ReferenceAccepts(*instance.tau2, image_xml);
  if (out_ok.ok() && *out_ok) {
    return Status::Internal("counterexample " + input_xml + " maps to " +
                            image_xml + ", which τ2 accepts");
  }
  return Status::OK();
}

}  // namespace perfbench
