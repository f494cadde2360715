// Cross-module integration tests: the full XML → encode → transform →
// typecheck pipeline, alphabet alignment (CompileDtdOver), pretty-printing,
// and failure-injection paths (budgets, malformed inputs).

#include <gtest/gtest.h>

#include <string>

#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pt/eval.h"
#include "src/pt/paper_machines.h"
#include "src/pt/print.h"
#include "src/query/selection.h"
#include "src/query/xslt.h"
#include "src/tree/encode.h"
#include "src/tree/term.h"
#include "src/xml/xml.h"

namespace pebbletc {
namespace {

TEST(CompileDtdOverTest, AlignsByName) {
  // The target alphabet interns tags in a different order.
  Alphabet target_tags;
  for (const char* n : {"zzz", "b", "a"}) target_tags.Intern(n);
  auto target = std::move(MakeEncodedAlphabet(target_tags)).ValueOrDie();
  auto dtd = std::move(ParseDtd("a := b*\nb := ()")).ValueOrDie();
  auto nbta = std::move(CompileDtdOver(dtd, target)).ValueOrDie();
  // Validate a document parsed against the *target* alphabet.
  Alphabet doc_tags = target_tags;
  auto doc = std::move(ParseUnrankedTerm("a(b,b)", &doc_tags)).ValueOrDie();
  auto bin = std::move(EncodeTree(doc, target)).ValueOrDie();
  EXPECT_TRUE(nbta.Accepts(bin));
  auto bad = std::move(ParseUnrankedTerm("b(a)", &doc_tags)).ValueOrDie();
  auto bad_bin = std::move(EncodeTree(bad, target)).ValueOrDie();
  EXPECT_FALSE(nbta.Accepts(bad_bin));
}

TEST(CompileDtdOverTest, MissingTagRejected) {
  Alphabet target_tags;
  target_tags.Intern("a");
  auto target = std::move(MakeEncodedAlphabet(target_tags)).ValueOrDie();
  auto dtd = std::move(ParseDtd("a := b*\nb := ()")).ValueOrDie();
  auto r = CompileDtdOver(dtd, target);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrintTest, TransducerNotation) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddBinary("a2");
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  std::string text = TransducerString(copy, sigma, sigma);
  EXPECT_NE(text.find("k=1"), std::string::npos);
  EXPECT_NE(text.find("output2"), std::string::npos);
  EXPECT_NE(text.find("down-left"), std::string::npos);
  EXPECT_NE(text.find("(a0, q"), std::string::npos);
}

TEST(PrintTest, AutomatonNotationWithGuards) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddBinary("n");
  PebbleAutomaton a(2, 2);
  StateId q1 = a.AddState(1);
  StateId q2 = a.AddState(2);
  a.SetStart(q1);
  a.AddMove({}, q1, PebbleAutomaton::MoveKind::kPlacePebble, q2);
  a.AddAccept({.symbol = 0, .presence_mask = 1, .presence_value = 1}, q2);
  std::string text = PebbleAutomatonString(a, sigma);
  EXPECT_NE(text.find("place-new-pebble"), std::string::npos);
  EXPECT_NE(text.find("b=1"), std::string::npos);
  EXPECT_NE(text.find("branch0"), std::string::npos);
}

// End-to-end: a small "database export" pipeline — relational-ish document,
// restructuring program, DTD typechecking — the paper's motivating SilkRoute
// scenario in miniature.
TEST(IntegrationTest, DatabaseExportPipeline) {
  Alphabet in_tags, out_tags;
  auto program = std::move(ParseXslt(R"(
    template db      { export { apply } }
    template person  { row { name; apply } }
    template dept    { row { title } }
  )",
                                     &in_tags, &out_tags))
                     .ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();

  auto doc = std::move(ParseXml(
                           "<db><person><dept/></person><person/><dept/></db>",
                           &in_tags))
                 .ValueOrDie();
  auto encoded = std::move(EncodeTree(doc, in_enc)).ValueOrDie();
  auto out_bin = std::move(EvalDeterministic(t, encoded)).ValueOrDie();
  auto out = std::move(DecodeTree(out_bin, out_enc)).ValueOrDie();
  EXPECT_EQ(UnrankedTermString(out, out_tags),
            "export(row(name,row(title)),row(name),row(title))");

  auto in_dtd = std::move(ParseDtd(R"(
      db     := (person|dept)*
      person := dept*
      dept   := ()
  )")).ValueOrDie();
  auto out_dtd = std::move(ParseDtd(R"(
      export := row*
      row    := (name.row*)|title
      name   := ()
      title  := ()
  )")).ValueOrDie();
  auto tau1 = std::move(CompileDtdOver(in_dtd, in_enc)).ValueOrDie();
  auto tau2 = std::move(CompileDtdOver(out_dtd, out_enc)).ValueOrDie();
  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  auto r = std::move(tc.Typecheck(tau1, tau2)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kTypechecks);
}

TEST(IntegrationTest, SelectionQueryTypechecksAgainstItsOutputDtd) {
  // Compile a selection query, then typecheck (bounded refutation) against
  // the canonical result := item*.end output DTD — and refute against a
  // wrong one.
  Alphabet in_tags;
  for (const char* n : {"r", "a"}) in_tags.Intern(n);
  SelectionQuery q;
  q.pattern = std::move(ParsePattern("[r.a]", &in_tags)).ValueOrDie();
  q.selected = 0;
  Alphabet out_tags;
  SelectionOutputTags tags = ExtendAlphabetForSelection(in_tags, &out_tags);
  auto in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
  auto t = std::move(CompileSelectionQuery(q, in_enc, out_enc, tags))
               .ValueOrDie();

  auto in_dtd = std::move(ParseDtd("r := a*\na := ()")).ValueOrDie();
  auto tau1 = std::move(CompileDtdOver(in_dtd, in_enc)).ValueOrDie();
  auto good = std::move(ParseDtd(
                            "result := item*.end\nitem := a\na := ()\n"
                            "end := ()"))
                  .ValueOrDie();
  auto tau2 = std::move(CompileDtdOver(good, out_enc)).ValueOrDie();
  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  TypecheckOptions opts;
  opts.run_complete_decision = false;  // 3 pebbles: exact bounded refutation
  opts.refutation_max_trees = 15;
  opts.refutation_max_nodes = 15;
  auto r = std::move(tc.Typecheck(tau1, tau2, opts)).ValueOrDie();
  EXPECT_NE(r.verdict, TypecheckVerdict::kCounterexample);

  auto wrong = std::move(ParseDtd(
                             "result := item.item*.end\nitem := a\n"
                             "a := ()\nend := ()"))
                   .ValueOrDie();  // demands ≥1 item; r() has none
  auto tau2_wrong = std::move(CompileDtdOver(wrong, out_enc)).ValueOrDie();
  auto r2 = std::move(tc.Typecheck(tau1, tau2_wrong, opts)).ValueOrDie();
  EXPECT_EQ(r2.verdict, TypecheckVerdict::kCounterexample);
  ASSERT_TRUE(r2.counterexample_input.has_value());
  auto bad_doc =
      std::move(DecodeTree(*r2.counterexample_input, in_enc)).ValueOrDie();
  EXPECT_TRUE(std::move(in_dtd.Accepts(bad_doc)).ValueOrDie());
}

TEST(FailureInjectionTest, BudgetsSurfaceAsResourceExhausted) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddBinary("n");
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta uni = UniversalNbta(sigma);
  TypecheckOptions opts;
  opts.refutation_max_trees = 3;
  opts.refutation_max_nodes = 3;
  opts.max_configs = 1;  // cripple the per-tree check
  opts.run_complete_decision = false;
  opts.fastpath_max_states = 1;  // cripple the fast path
  auto r = std::move(tc.Typecheck(uni, uni, opts)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kUnknown);
  EXPECT_FALSE(r.notes.empty());
}

TEST(FailureInjectionTest, MismatchedAlphabetsRejectedEverywhere) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddBinary("n");
  RankedAlphabet other;
  (void)other.AddLeaf("x");
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, other, sigma);  // wrong input alphabet
  auto r = tc.Typecheck(UniversalNbta(other), UniversalNbta(sigma));
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace pebbletc
