// Tests for the serving layer (src/serve/, docs/SERVING.md): wire protocol
// round trips, the fuzz-style malformed-frame table, validity tiers,
// registry resolution, end-to-end typecheck/validate/infer dispatch, and
// admission control / overload shedding. Label `serve`; CI runs the suite
// under ASan/UBSan so every malformed-byte path is proven leak- and UB-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/status.h"
#include "src/dtd/dtd.h"
#include "src/pt/paper_machines.h"
#include "src/serve/admission.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/validity.h"
#include "src/ta/serialize.h"

namespace pebbletc::serve {
namespace {

// The worked example from the repo docs: rename <a>→<b>, <c>→<d>. Against
// `good_out` it typechecks (downward fast path); against `bad_out` the only
// document <a><c/></a> maps to <b><d/></b>, which is not in the type.
constexpr char kRenameXslt[] = R"(
  template a { b { apply } }
  template c { d }
)";
constexpr char kInDtd[] = "a := c\nc := ()\n";
constexpr char kGoodOutDtd[] = "b := d\nd := ()\n";
constexpr char kBadOutDtd[] = "b := e\ne := ()\n";

ServeOptions TestOptions() {
  ServeOptions options;
  options.validity.level = ValidityLevel::kFull;
  options.admission_wait = std::chrono::milliseconds(20);
  return options;
}

void LoadExampleRegistry(ServerCore* server) {
  ASSERT_TRUE(server->registry().PutXsltText("rename", kRenameXslt).ok());
  ASSERT_TRUE(server->registry().PutDtdText("in", kInDtd).ok());
  ASSERT_TRUE(server->registry().PutDtdText("good_out", kGoodOutDtd).ok());
  ASSERT_TRUE(server->registry().PutDtdText("bad_out", kBadOutDtd).ok());
  // A pre-compiled identity (copy) transducer over a one-tag DTD's encoded
  // alphabet — small enough for exact inverse inference.
  ASSERT_TRUE(server->registry().PutDtdText("micro", "m := ()\n").ok());
  SpecializedDtd dtd =
      std::move(ParseSpecializedDtd("m := ()\n")).ValueOrDie();
  EncodedAlphabet enc =
      std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  auto artifact = std::make_shared<TransducerArtifact>();
  artifact->transducer = MakeCopyTransducer(enc.ranked);
  artifact->input_alphabet = enc.ranked;
  artifact->output_alphabet = enc.ranked;
  RegistryEntry entry;
  entry.kind = RegistryEntry::Kind::kTransducer;
  entry.transducer = std::move(artifact);
  server->registry().Put("copy", std::move(entry));
}

Request MakeTypecheck(uint32_t id, const std::string& transducer,
                      const std::string& tau1, const std::string& tau2) {
  Request request;
  request.header.opcode = Opcode::kTypecheck;
  request.header.request_id = id;
  request.body = TypecheckRequest{transducer, tau1, tau2};
  return request;
}

Request MakeValidate(uint32_t id, const std::string& schema,
                     const std::string& document) {
  Request request;
  request.header.opcode = Opcode::kValidate;
  request.header.request_id = id;
  request.body = ValidateRequest{schema, document};
  return request;
}

Request MakeBatch(uint32_t id, const std::string& schema,
                  std::vector<std::string> documents) {
  Request request;
  request.header.opcode = Opcode::kValidateBatch;
  request.header.request_id = id;
  request.body = ValidateBatchRequest{schema, std::move(documents)};
  return request;
}

// ---------------------------------------------------------------------------
// Protocol round trips.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsEveryOpcode) {
  Request requests[8];
  requests[0].body = PingRequest{};
  requests[0].header.opcode = Opcode::kPing;
  requests[1].body = ValidateRequest{"schema", "<a/>"};
  requests[1].header.opcode = Opcode::kValidate;
  requests[2].body = TypecheckRequest{"t", "in", "out"};
  requests[2].header.opcode = Opcode::kTypecheck;
  requests[3].body = InferInverseRequest{"t", "out"};
  requests[3].header.opcode = Opcode::kInferInverse;
  requests[4].body = LoadArtifactRequest{"name", std::string("\x00\x01", 2)};
  requests[4].header.opcode = Opcode::kLoadArtifact;
  requests[5].body = ListArtifactsRequest{};
  requests[5].header.opcode = Opcode::kListArtifacts;
  requests[6].body = StatsRequest{};
  requests[6].header.opcode = Opcode::kStats;
  requests[7].body = ValidateBatchRequest{"schema", {"<a/>", "", "<b/>"}};
  requests[7].header.opcode = Opcode::kValidateBatch;

  uint32_t id = 100;
  for (Request& request : requests) {
    request.header.request_id = id;
    request.header.deadline_ms = id * 3;
    std::string bytes;
    EncodeRequest(request, &bytes);
    Result<Request> back = DecodeRequest(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back->header.request_id, id);
    EXPECT_EQ(back->header.deadline_ms, id * 3);
    EXPECT_EQ(back->header.opcode, request.header.opcode);
    EXPECT_EQ(back->body.index(), request.body.index());
    std::string again;
    EncodeRequest(*back, &again);
    EXPECT_EQ(again, bytes);
    ++id;
  }
}

TEST(ServeProtocolTest, ResponseRoundTripsTypecheckBody) {
  Response response;
  response.header.opcode = Opcode::kTypecheck;
  response.header.request_id = 7;
  TypecheckResponse body;
  body.verdict = 1;
  body.method = "downward-fastpath";
  body.exhausted = true;
  body.exhaustion_code = static_cast<uint8_t>(StatusCode::kDeadlineExceeded);
  body.exhaustion_pass = "complete-decision";
  body.exhaustion_detail = "deadline";
  body.checkpoints = 12345;
  body.states_materialized = 678;
  body.counterexample_input_xml = "<a><c/></a>";
  body.counterexample_output_xml = "<b><d/></b>";
  response.body = body;

  std::string bytes;
  EncodeResponse(response, &bytes);
  Result<Response> back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const auto& b = std::get<TypecheckResponse>(back->body);
  EXPECT_EQ(b.verdict, 1);
  EXPECT_EQ(b.method, "downward-fastpath");
  EXPECT_TRUE(b.exhausted);
  EXPECT_EQ(b.checkpoints, 12345u);
  EXPECT_EQ(b.counterexample_input_xml, "<a><c/></a>");
}

TEST(ServeProtocolTest, ErrorResponseCarriesNoBody) {
  Response err = MakeErrorResponse(Opcode::kTypecheck, 9,
                                   WireStatus::kOverloaded, "busy");
  std::string bytes;
  EncodeResponse(err, &bytes);
  Result<Response> back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->header.status, WireStatus::kOverloaded);
  EXPECT_EQ(back->header.detail, "busy");
  EXPECT_EQ(back->header.request_id, 9u);
}

// A hostile or buggy server could declare millions of artifact-list entries
// in a tiny payload; the client must reject the count before reserving
// (~40 bytes per claimed entry) rather than after a huge allocation.
TEST(ServeProtocolTest, ListArtifactsCountBeyondPayloadIsRejected) {
  std::string bytes;
  auto put_u8 = [&bytes](uint8_t v) {
    bytes.push_back(static_cast<char>(v));
  };
  auto put_u32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_u8(kWireVersion);
  put_u8(static_cast<uint8_t>(Opcode::kListArtifacts));
  put_u32(/*request_id=*/1);
  put_u8(static_cast<uint8_t>(WireStatus::kOk));
  put_u32(/*detail length=*/0);
  put_u32(/*count=*/4u << 20);  // ~4M entries declared, zero entries present
  Result<Response> r = DecodeResponse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ServeProtocolTest, BatchResponseRoundTripsMixedVerdicts) {
  Response response;
  response.header.opcode = Opcode::kValidateBatch;
  response.header.request_id = 12;
  ValidateBatchResponse body;
  body.verdicts.push_back(
      {static_cast<uint8_t>(WireStatus::kOk), true, ""});
  body.verdicts.push_back(
      {static_cast<uint8_t>(WireStatus::kOk), false, "rejected"});
  body.verdicts.push_back({static_cast<uint8_t>(WireStatus::kInvalidArgument),
                           false, "document: parse error"});
  body.verdicts.push_back(
      {static_cast<uint8_t>(WireStatus::kCancelled), false, "cancelled"});
  body.fast_path_docs = 2;
  body.fallback_docs = 1;
  response.body = std::move(body);

  std::string bytes;
  EncodeResponse(response, &bytes);
  Result<Response> back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const auto& got = std::get<ValidateBatchResponse>(back->body);
  ASSERT_EQ(got.verdicts.size(), 4u);
  EXPECT_EQ(got.verdicts[0].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_TRUE(got.verdicts[0].valid);
  EXPECT_FALSE(got.verdicts[1].valid);
  EXPECT_EQ(got.verdicts[1].diagnostic, "rejected");
  EXPECT_EQ(got.verdicts[3].status,
            static_cast<uint8_t>(WireStatus::kCancelled));
  EXPECT_EQ(got.fast_path_docs, 2u);
  EXPECT_EQ(got.fallback_docs, 1u);
}

// Same hostile-count shape as the artifact list, on both batch directions:
// a declared count far beyond the remaining payload must be rejected before
// any reserve.
TEST(ServeProtocolTest, BatchCountsBeyondPayloadAreRejected) {
  auto put_u8 = [](std::string* bytes, uint8_t v) {
    bytes->push_back(static_cast<char>(v));
  };
  auto put_u32 = [](std::string* bytes, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };

  std::string request;
  put_u8(&request, kWireVersion);
  put_u8(&request, static_cast<uint8_t>(Opcode::kValidateBatch));
  put_u32(&request, /*request_id=*/1);
  put_u32(&request, /*deadline_ms=*/0);
  put_u32(&request, /*schema length=*/1);
  request += "s";
  put_u32(&request, /*document count=*/8u << 20);  // millions declared
  Result<Request> r = DecodeRequest(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  std::string response;
  put_u8(&response, kWireVersion);
  put_u8(&response, static_cast<uint8_t>(Opcode::kValidateBatch));
  put_u32(&response, /*request_id=*/1);
  put_u8(&response, static_cast<uint8_t>(WireStatus::kOk));
  put_u32(&response, /*detail length=*/0);
  put_u32(&response, /*verdict count=*/8u << 20);
  Result<Response> b = DecodeResponse(response);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Frame decoding.
// ---------------------------------------------------------------------------

TEST(ServeFrameTest, IncrementalDecodingAcrossArbitrarySplits) {
  std::string stream;
  EncodeFrame("first", &stream);
  EncodeFrame("", &stream);
  EncodeFrame("third-payload", &stream);

  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameDecoder decoder;
    std::vector<std::string> frames;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      decoder.Append(std::string_view(stream).substr(
          off, std::min(chunk, stream.size() - off)));
      while (true) {
        Result<std::optional<std::string>> next = decoder.Next();
        ASSERT_TRUE(next.ok());
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk size " << chunk;
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], "third-payload");
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(ServeFrameTest, TruncatedPrefixAndMidFrameEofLeavePendingBytes) {
  FrameDecoder decoder;
  decoder.Append("\x02");  // one byte of a four-byte length prefix
  Result<std::optional<std::string>> r = decoder.Next();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  EXPECT_EQ(decoder.pending_bytes(), 1u);  // EOF now = torn frame, detectable

  FrameDecoder decoder2;
  std::string frame;
  EncodeFrame("payload", &frame);
  decoder2.Append(std::string_view(frame).substr(0, frame.size() - 3));
  r = decoder2.Next();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  EXPECT_GT(decoder2.pending_bytes(), 0u);
}

TEST(ServeFrameTest, OversizedDeclaredLengthPoisonsTheStream) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  std::string huge;
  EncodeFrame(std::string(10, 'x'), &huge);     // fine
  huge[0] = '\xff'; huge[1] = '\xff';           // now declares ~4 GiB
  huge[2] = '\xff'; huge[3] = '\xff';
  decoder.Append(huge);
  Result<std::optional<std::string>> r = decoder.Next();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // Poisoned: even a now-valid frame cannot be trusted.
  std::string fine;
  EncodeFrame("ok", &fine);
  decoder.Append(fine);
  EXPECT_FALSE(decoder.Next().ok());
}

// ---------------------------------------------------------------------------
// The malformed-frame table: every hostile payload yields a structured
// error response and the server stays alive. No malformed byte reaches an
// automata op (they would CHECK-crash under ASan if one did).
// ---------------------------------------------------------------------------

TEST(ServeMalformedTest, EveryMalformedPayloadGetsAStructuredError) {
  ServerCore server(TestOptions());
  LoadExampleRegistry(&server);

  std::string valid_typecheck;
  EncodeRequest(MakeTypecheck(1, "rename", "in", "good_out"),
                &valid_typecheck);

  struct Case {
    const char* name;
    std::string payload;
    WireStatus want;
  };
  std::vector<Case> table;
  table.push_back({"empty payload", "", WireStatus::kMalformedFrame});
  table.push_back({"header torn after one byte", std::string(1, '\x01'),
                   WireStatus::kMalformedFrame});
  table.push_back({"header torn mid request-id",
                   std::string("\x01\x02\x01\x02", 4),
                   WireStatus::kMalformedFrame});
  table.push_back({"future wire version",
                   [] {
                     Request r;
                     r.header.version = 9;
                     r.body = PingRequest{};
                     std::string bytes;
                     EncodeRequest(r, &bytes);
                     return bytes;
                   }(),
                   WireStatus::kUnsupportedVersion});
  table.push_back({"unknown opcode",
                   [] {
                     std::string bytes = "\x01\x63";  // version 1, opcode 99
                     bytes.append(8, '\0');
                     return bytes;
                   }(),
                   WireStatus::kUnknownOpcode});
  table.push_back({"typecheck body truncated mid string",
                   valid_typecheck.substr(0, valid_typecheck.size() - 3),
                   WireStatus::kMalformedFrame});
  table.push_back({"trailing bytes after a valid body",
                   valid_typecheck + "xx", WireStatus::kMalformedFrame});
  table.push_back({"string length larger than the frame",
                   [] {
                     std::string bytes = "\x01\x01";  // validate
                     bytes.append(8, '\0');           // id, deadline
                     bytes += std::string("\xff\xff\xff\x7f", 4);  // schema len
                     bytes += "abc";
                     return bytes;
                   }(),
                   WireStatus::kMalformedFrame});
  table.push_back({"random garbage",
                   std::string("\x01\x02garbage-not-a-frame\x00\x17", 22),
                   WireStatus::kMalformedFrame});

  uint64_t malformed_seen = 0;
  for (const Case& c : table) {
    std::string encoded = server.HandleFrame(c.payload);
    Result<Response> response = DecodeResponse(encoded);
    ASSERT_TRUE(response.ok())
        << c.name << ": response failed to decode: "
        << response.status().message();
    EXPECT_EQ(response->header.status, c.want) << c.name;
    EXPECT_FALSE(response->header.detail.empty()) << c.name;
    ++malformed_seen;
    EXPECT_EQ(server.SnapshotStats().malformed_rejected, malformed_seen)
        << c.name;
  }

  // The server is still fully functional afterwards.
  std::string ok = server.HandleFrame(valid_typecheck);
  Result<Response> response = DecodeResponse(ok);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->header.status, WireStatus::kOk);
  EXPECT_EQ(std::get<TypecheckResponse>(response->body).verdict, 0);
}

// ---------------------------------------------------------------------------
// Validity tiers.
// ---------------------------------------------------------------------------

TEST(ServeValidityTest, TiersAreCumulative) {
  Request bad_name = MakeTypecheck(1, "../../etc/passwd", "in", "out");
  Request huge_deadline = MakeTypecheck(2, "rename", "in", "out");
  huge_deadline.header.deadline_ms = 1u << 30;
  Request bad_xml = MakeValidate(3, "in", "<a><unclosed></a>");

  ValidityOptions off;
  off.level = ValidityLevel::kOff;
  EXPECT_TRUE(CheckRequest(bad_name, off).ok());
  EXPECT_TRUE(CheckRequest(huge_deadline, off).ok());
  EXPECT_TRUE(CheckRequest(bad_xml, off).ok());

  ValidityOptions basic;
  basic.level = ValidityLevel::kBasic;
  EXPECT_FALSE(CheckRequest(bad_name, basic).ok());
  EXPECT_FALSE(CheckRequest(huge_deadline, basic).ok());
  EXPECT_TRUE(CheckRequest(bad_xml, basic).ok()) << "XML shape is kFull's job";

  ValidityOptions full;
  full.level = ValidityLevel::kFull;
  EXPECT_FALSE(CheckRequest(bad_xml, full).ok());
}

TEST(ServeValidityTest, BasicCapsDocumentAndArtifactSizes) {
  ValidityOptions basic;
  basic.level = ValidityLevel::kBasic;
  basic.max_document_bytes = 64;
  Request big_doc = MakeValidate(1, "in", std::string(65, 'x'));
  EXPECT_FALSE(CheckRequest(big_doc, basic).ok());

  basic.max_artifact_bytes = 16;
  Request big_artifact;
  big_artifact.header.opcode = Opcode::kLoadArtifact;
  big_artifact.body = LoadArtifactRequest{"name", std::string(17, 'x')};
  EXPECT_FALSE(CheckRequest(big_artifact, basic).ok());
}

TEST(ServeValidityTest, FullRejectsCorruptArtifactsBeforeDispatch) {
  SpecializedDtd dtd = std::move(ParseSpecializedDtd(kInDtd)).ValueOrDie();
  std::string payload;
  SerializeDtdArtifact(dtd, &payload);
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, payload, &wrapped);

  Request load;
  load.header.opcode = Opcode::kLoadArtifact;
  load.body = LoadArtifactRequest{"loaded", wrapped};
  ValidityOptions full;
  EXPECT_TRUE(CheckRequest(load, full).ok());

  std::string corrupt = wrapped;
  corrupt[wrapped.size() - 1] ^= 0x10;
  load.body = LoadArtifactRequest{"loaded", corrupt};
  Status s = CheckRequest(load, full);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// End-to-end dispatch.
// ---------------------------------------------------------------------------

class ServeDispatchTest : public ::testing::Test {
 protected:
  ServeDispatchTest() : server_(TestOptions()) {
    LoadExampleRegistry(&server_);
  }
  ServerCore server_;
};

TEST_F(ServeDispatchTest, TypecheckGoodAndBadPairs) {
  Response good = server_.Handle(MakeTypecheck(1, "rename", "in", "good_out"));
  ASSERT_EQ(good.header.status, WireStatus::kOk) << good.header.detail;
  EXPECT_EQ(std::get<TypecheckResponse>(good.body).verdict, 0);

  Response bad = server_.Handle(MakeTypecheck(2, "rename", "in", "bad_out"));
  ASSERT_EQ(bad.header.status, WireStatus::kOk) << bad.header.detail;
  const auto& body = std::get<TypecheckResponse>(bad.body);
  EXPECT_EQ(body.verdict, 1);
  EXPECT_EQ(body.counterexample_input_xml, "<a><c/></a>");
  EXPECT_EQ(body.counterexample_output_xml, "<b><d/></b>");
}

TEST_F(ServeDispatchTest, ValidateAgainstDtd) {
  Response valid = server_.Handle(MakeValidate(1, "in", "<a><c/></a>"));
  ASSERT_EQ(valid.header.status, WireStatus::kOk);
  EXPECT_TRUE(std::get<ValidateResponse>(valid.body).valid);

  Response invalid = server_.Handle(MakeValidate(2, "in", "<a/>"));
  ASSERT_EQ(invalid.header.status, WireStatus::kOk);
  const auto& body = std::get<ValidateResponse>(invalid.body);
  EXPECT_FALSE(body.valid);
  EXPECT_FALSE(body.diagnostic.empty());

  // A tag the DTD has never declared must read as invalid — and must not
  // mutate the shared registry entry's alphabet.
  Response unknown = server_.Handle(MakeValidate(3, "in", "<a><z/></a>"));
  ASSERT_EQ(unknown.header.status, WireStatus::kOk);
  EXPECT_FALSE(std::get<ValidateResponse>(unknown.body).valid);
  const size_t dtd_tags = server_.registry().Get("in")->dtd->tags().size();
  EXPECT_EQ(dtd_tags, 2u);
}

TEST_F(ServeDispatchTest, UnknownNamesAndWrongKinds) {
  Response missing = server_.Handle(MakeTypecheck(1, "nope", "in", "good_out"));
  EXPECT_EQ(missing.header.status, WireStatus::kNotFound);

  Response wrong_kind = server_.Handle(MakeTypecheck(2, "in", "in",
                                                     "good_out"));
  EXPECT_EQ(wrong_kind.header.status, WireStatus::kFailedPrecondition);

  Response schema_is_xslt = server_.Handle(MakeValidate(3, "rename", "<a/>"));
  EXPECT_EQ(schema_is_xslt.header.status, WireStatus::kFailedPrecondition);
}

TEST_F(ServeDispatchTest, InferInverseReturnsAnAutomatonSummary) {
  Request request;
  request.header.opcode = Opcode::kInferInverse;
  request.header.request_id = 4;
  request.body = InferInverseRequest{"copy", "micro"};
  request.header.deadline_ms = 30000;  // inference is seconds-scale
  Response response = server_.Handle(request);
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;
  EXPECT_GT(std::get<InferInverseResponse>(response.body).num_states, 0u);
}

TEST_F(ServeDispatchTest, LoadArtifactInstallsAndServes) {
  SpecializedDtd dtd = std::move(ParseSpecializedDtd(kInDtd)).ValueOrDie();
  std::string payload;
  SerializeDtdArtifact(dtd, &payload);
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, payload, &wrapped);

  Request load;
  load.header.opcode = Opcode::kLoadArtifact;
  load.header.request_id = 1;
  load.body = LoadArtifactRequest{"loaded-in", wrapped};
  Response response = server_.Handle(load);
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;

  Response valid = server_.Handle(MakeValidate(2, "loaded-in", "<a><c/></a>"));
  ASSERT_EQ(valid.header.status, WireStatus::kOk);
  EXPECT_TRUE(std::get<ValidateResponse>(valid.body).valid);

  Response typecheck =
      server_.Handle(MakeTypecheck(3, "rename", "loaded-in", "good_out"));
  ASSERT_EQ(typecheck.header.status, WireStatus::kOk);
  EXPECT_EQ(std::get<TypecheckResponse>(typecheck.body).verdict, 0);
}

TEST_F(ServeDispatchTest, LoadCanBeDisabled) {
  ServeOptions options = TestOptions();
  options.allow_load = false;
  ServerCore locked(options);
  Request load;
  load.header.opcode = Opcode::kLoadArtifact;
  load.body = LoadArtifactRequest{"x", "irrelevant"};
  // kFull validity would reject the garbage payload first; use kOff to reach
  // the dispatch-level gate.
  locked.registry();  // silence unused warnings on some configs
  ServeOptions off = options;
  off.validity.level = ValidityLevel::kOff;
  ServerCore locked_off(off);
  Response response = locked_off.Handle(load);
  EXPECT_EQ(response.header.status, WireStatus::kFailedPrecondition);
}

TEST_F(ServeDispatchTest, ListAndStatsAndPing) {
  Request list;
  list.header.opcode = Opcode::kListArtifacts;
  Response response = server_.Handle(list);
  ASSERT_EQ(response.header.status, WireStatus::kOk);
  const auto& body = std::get<ListArtifactsResponse>(response.body);
  ASSERT_EQ(body.artifacts.size(), 6u);
  EXPECT_EQ(body.artifacts[0].name, "bad_out");  // sorted by name
  EXPECT_EQ(body.artifacts[1].name, "copy");
  EXPECT_EQ(body.artifacts[5].name, "rename");

  Request ping;
  ping.header.opcode = Opcode::kPing;
  EXPECT_EQ(server_.Handle(ping).header.status, WireStatus::kOk);

  Request stats;
  stats.header.opcode = Opcode::kStats;
  Response stats_response = server_.Handle(stats);
  ASSERT_EQ(stats_response.header.status, WireStatus::kOk);
  EXPECT_GE(std::get<StatsResponse>(stats_response.body).requests_total, 3u);
}

TEST_F(ServeDispatchTest, CancellationDegradesGracefully) {
  std::atomic<bool> cancel{true};  // cancelled before the first checkpoint
  Response response =
      server_.Handle(MakeTypecheck(1, "rename", "in", "good_out"), &cancel);
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;
  const auto& body = std::get<TypecheckResponse>(response.body);
  EXPECT_EQ(body.verdict, 2);  // kUnknown — degraded, not dropped
  EXPECT_TRUE(body.exhausted);
  EXPECT_EQ(body.exhaustion_code,
            static_cast<uint8_t>(StatusCode::kCancelled));
}

// ---------------------------------------------------------------------------
// Batch dispatch (docs/VALIDATION.md).
// ---------------------------------------------------------------------------

TEST_F(ServeDispatchTest, ValidateBatchAgainstDtd) {
  Response response = server_.Handle(
      MakeBatch(1, "in", {"<a><c/></a>", "<a/>", "<a><z/></a>"}));
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;
  const auto& body = std::get<ValidateBatchResponse>(response.body);
  ASSERT_EQ(body.verdicts.size(), 3u);
  EXPECT_EQ(body.verdicts[0].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_TRUE(body.verdicts[0].valid);
  EXPECT_EQ(body.verdicts[1].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_FALSE(body.verdicts[1].valid);
  EXPECT_FALSE(body.verdicts[1].diagnostic.empty())
      << "rejections carry a diagnostic";
  EXPECT_FALSE(body.verdicts[2].valid);
  EXPECT_NE(body.verdicts[2].diagnostic.find("'z'"), std::string::npos)
      << "unknown-tag diagnostic names the tag: "
      << body.verdicts[2].diagnostic;
  // The unknown-tag document never reaches a table verdict; the other two
  // were answered by the engine.
  EXPECT_EQ(body.fast_path_docs + body.fallback_docs, 2u);
}

TEST_F(ServeDispatchTest, BatchVerdictsMatchSingleValidateVerdicts) {
  const std::vector<std::string> docs = {"<a><c/></a>", "<a/>",
                                         "<a><z/></a>"};
  Response batch = server_.Handle(MakeBatch(1, "in", docs));
  ASSERT_EQ(batch.header.status, WireStatus::kOk);
  const auto& body = std::get<ValidateBatchResponse>(batch.body);
  ASSERT_EQ(body.verdicts.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    Response single = server_.Handle(
        MakeValidate(static_cast<uint32_t>(10 + i), "in", docs[i]));
    ASSERT_EQ(single.header.status, WireStatus::kOk);
    const auto& v = std::get<ValidateResponse>(single.body);
    EXPECT_EQ(body.verdicts[i].valid, v.valid) << "doc " << i;
    EXPECT_EQ(body.verdicts[i].diagnostic, v.diagnostic) << "doc " << i;
  }
}

TEST_F(ServeDispatchTest, BatchUnknownNameAndWrongKindFailWhole) {
  Response missing = server_.Handle(MakeBatch(1, "nope", {"<a/>"}));
  EXPECT_EQ(missing.header.status, WireStatus::kNotFound);
  Response wrong_kind = server_.Handle(MakeBatch(2, "rename", {"<a/>"}));
  EXPECT_EQ(wrong_kind.header.status, WireStatus::kFailedPrecondition);
}

TEST_F(ServeDispatchTest, EmptyBatchIsRejectedByValidity) {
  Response empty = server_.Handle(MakeBatch(1, "in", {}));
  EXPECT_EQ(empty.header.status, WireStatus::kValidationFailed);
}

TEST_F(ServeDispatchTest, BatchOverDocLimitIsRejectedByValidity) {
  ServeOptions options = TestOptions();
  options.validity.max_batch_docs = 4;
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());
  std::vector<std::string> docs(5, "<a><c/></a>");
  Response over = server.Handle(MakeBatch(1, "in", docs));
  EXPECT_EQ(over.header.status, WireStatus::kValidationFailed);
  EXPECT_NE(over.header.detail.find("exceeds the limit"), std::string::npos)
      << over.header.detail;
  docs.pop_back();
  Response at_limit = server.Handle(MakeBatch(2, "in", docs));
  EXPECT_EQ(at_limit.header.status, WireStatus::kOk);
}

// Under kBasic validity (no pre-parse), a malformed document reaches the
// engine and must surface as a per-document kInvalidArgument verdict while
// the rest of the batch completes normally.
TEST(ServeBatchTest, MalformedDocumentGetsHonestPerDocVerdict) {
  ServeOptions options = TestOptions();
  options.validity.level = ValidityLevel::kBasic;
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());
  Response response = server.Handle(
      MakeBatch(1, "in", {"<a><c/></a>", "not xml", "<a/>"}));
  ASSERT_EQ(response.header.status, WireStatus::kOk)
      << response.header.detail;
  const auto& body = std::get<ValidateBatchResponse>(response.body);
  ASSERT_EQ(body.verdicts.size(), 3u);
  EXPECT_TRUE(body.verdicts[0].valid);
  EXPECT_EQ(body.verdicts[1].status,
            static_cast<uint8_t>(WireStatus::kInvalidArgument));
  EXPECT_EQ(body.verdicts[1].diagnostic.rfind("document: ", 0), 0u)
      << body.verdicts[1].diagnostic;
  EXPECT_EQ(body.verdicts[2].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_FALSE(body.verdicts[2].valid);
}

// A disconnect mid-batch cancels the remaining documents: each unprocessed
// verdict reports kCancelled honestly instead of a fabricated answer, and
// the response itself still decodes as kOk.
TEST(ServeBatchTest, DisconnectCancelsRemainingDocuments) {
  ServeOptions options = TestOptions();
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());
  // Warm the plan cache: a disconnect during plan *compilation* fails the
  // whole request (the response is never sent anyway); this test pins the
  // mid-batch story, where the plan exists and documents are in flight.
  ASSERT_EQ(server.Handle(MakeBatch(1, "in", {"<a/>"})).header.status,
            WireStatus::kOk);
  std::atomic<bool> cancel{true};  // "client gone" before the first doc
  std::vector<std::string> docs(6, "<a><c/></a>");
  Response response = server.Handle(MakeBatch(2, "in", docs), &cancel);
  ASSERT_EQ(response.header.status, WireStatus::kOk)
      << response.header.detail;
  const auto& body = std::get<ValidateBatchResponse>(response.body);
  ASSERT_EQ(body.verdicts.size(), docs.size());
  for (size_t i = 0; i < body.verdicts.size(); ++i) {
    EXPECT_EQ(body.verdicts[i].status,
              static_cast<uint8_t>(WireStatus::kCancelled))
        << "doc " << i;
    EXPECT_FALSE(body.verdicts[i].valid);
  }
  EXPECT_EQ(body.fast_path_docs, 0u);
}

// The whole batch is ONE heavy request: it needs (and holds) exactly one
// admission slot, so a saturated server sheds it with a single kOverloaded
// response, and a max_in_flight=1 server still serves any batch size.
TEST(ServeBatchTest, BatchHoldsExactlyOneAdmissionSlot) {
  ServeOptions options = TestOptions();
  options.max_in_flight = 1;
  options.max_queued = 1;
  options.admission_wait = std::chrono::milliseconds(5);
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());

  std::vector<std::string> docs(16, "<a><c/></a>");
  Response served = server.Handle(MakeBatch(1, "in", docs));
  ASSERT_EQ(served.header.status, WireStatus::kOk) << served.header.detail;
  EXPECT_EQ(std::get<ValidateBatchResponse>(served.body).verdicts.size(),
            docs.size());
  EXPECT_EQ(server.admission().in_flight(), 0u) << "slot released";

  auto held = server.admission().Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.ok());
  Response shed = server.Handle(MakeBatch(2, "in", docs));
  EXPECT_EQ(shed.header.status, WireStatus::kOverloaded);
  EXPECT_EQ(server.SnapshotStats().overload_rejected, 1u)
      << "one shed, not one per document";
  held->Release();
}

// ---------------------------------------------------------------------------
// Concurrent requests on one server.
// ---------------------------------------------------------------------------

// The part of a response that must not depend on load or on what ran
// before: status and verdict fields, without request ids, op counters or
// cache traffic.
std::string VerdictOf(const Response& r) {
  std::string out = std::to_string(static_cast<int>(r.header.status)) + ":";
  if (const auto* v = std::get_if<ValidateResponse>(&r.body)) {
    out += (v->valid ? "valid " : "invalid ") + v->diagnostic;
  } else if (const auto* b = std::get_if<ValidateBatchResponse>(&r.body)) {
    for (const BatchDocVerdict& d : b->verdicts) {
      out += std::to_string(d.status) + (d.valid ? "+" : "-") + d.diagnostic +
             ";";
    }
    out += std::to_string(b->fast_path_docs) + "/" +
           std::to_string(b->fallback_docs);
  } else if (const auto* t = std::get_if<TypecheckResponse>(&r.body)) {
    out += std::to_string(t->verdict) + " " + t->method + " " +
           t->counterexample_input_xml + " " + t->counterexample_output_xml;
  } else if (const auto* l = std::get_if<LoadArtifactResponse>(&r.body)) {
    out += std::to_string(l->kind);
  }
  return out;
}

// Four client threads share one ServerCore through HandleFrame, as the
// socket transport's connection threads do: validates, batches, good and
// bad typechecks, stats, and a periodic hot reload of the DTD they all
// read. Every verdict must equal that request's verdict on an idle server,
// and the stats must account for every request sent.
TEST(ServeConcurrencyTest, ConcurrentClientsGetIdleServerVerdicts) {
  SpecializedDtd dtd = std::move(ParseSpecializedDtd(kInDtd)).ValueOrDie();
  std::string payload;
  SerializeDtdArtifact(dtd, &payload);
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, payload, &wrapped);
  Request reload;
  reload.header.opcode = Opcode::kLoadArtifact;
  reload.body = LoadArtifactRequest{"in", wrapped};
  Request stats;
  stats.header.opcode = Opcode::kStats;

  const std::vector<Request> mix = {
      MakeValidate(1, "in", "<a><c/></a>"),
      MakeValidate(2, "in", "<a/>"),
      MakeBatch(3, "in", {"<a><c/></a>", "<a/>", "<a><z/></a>"}),
      MakeTypecheck(4, "rename", "in", "good_out"),
      MakeTypecheck(5, "rename", "in", "bad_out"),
      stats,
      reload,
  };
  std::vector<std::string> frames(mix.size());
  std::vector<std::string> expected(mix.size());
  {
    ServerCore idle(TestOptions());
    LoadExampleRegistry(&idle);
    for (size_t k = 0; k < mix.size(); ++k) {
      EncodeRequest(mix[k], &frames[k]);
      Result<Response> r = DecodeResponse(idle.HandleFrame(frames[k]));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->header.status, WireStatus::kOk) << r->header.detail;
      expected[k] = VerdictOf(*r);
    }
  }

  ServerCore server(TestOptions());
  LoadExampleRegistry(&server);
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 210;
  const size_t kStats = 5;
  const size_t kReload = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        // Every thread reloads the DTD once per 30 requests, at staggered
        // points, so reloads land between everyone else's reads.
        const size_t k = (i + 7 * c) % 30 == 0 ? kReload : (i + c) % kReload;
        Result<Response> r = DecodeResponse(server.HandleFrame(frames[k]));
        bool ok = r.ok() && r->header.status == WireStatus::kOk;
        if (ok && k == kStats) {
          const auto& s = std::get<StatsResponse>(r->body);
          ok = s.requests_total <= kThreads * kRequestsPerThread &&
               s.in_flight <= server.options().max_in_flight;
        } else if (ok) {
          ok = VerdictOf(*r) == expected[k];
        }
        if (!ok) {
          ADD_FAILURE() << "client " << c << ", request " << i << " (kind "
                        << k << "): "
                        << (r.ok() ? VerdictOf(*r) + " " + r->header.detail
                                   : r.status().ToString())
                        << " vs idle " << expected[k];
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const StatsResponse s = server.SnapshotStats();
  const uint64_t sent = kThreads * kRequestsPerThread;
  EXPECT_EQ(s.requests_total, sent);
  EXPECT_EQ(s.responses_ok, sent);
  EXPECT_EQ(s.malformed_rejected, 0u);
  EXPECT_EQ(s.validation_rejected, 0u);
  EXPECT_EQ(s.overload_rejected, 0u);
  EXPECT_EQ(s.degraded_verdicts, 0u);
  EXPECT_EQ(s.hard_errors, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

// ---------------------------------------------------------------------------
// Serve configuration (the frame-cap knob).
// ---------------------------------------------------------------------------

TEST(ServeConfigTest, ValidateServeOptionsRejectsOutOfWindowFrameCaps) {
  ServeOptions options = TestOptions();
  EXPECT_TRUE(ValidateServeOptions(options).ok()) << "default is valid";

  options.max_frame_bytes = kMinFrameBytes;
  EXPECT_TRUE(ValidateServeOptions(options).ok());
  options.max_frame_bytes = kMaxFrameBytesCeiling;
  EXPECT_TRUE(ValidateServeOptions(options).ok());

  options.max_frame_bytes = 0;
  Status zero = ValidateServeOptions(options);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument);

  options.max_frame_bytes = kMinFrameBytes - 1;
  EXPECT_FALSE(ValidateServeOptions(options).ok()) << "below the floor";
  options.max_frame_bytes = kMaxFrameBytesCeiling + 1;
  EXPECT_FALSE(ValidateServeOptions(options).ok()) << "above the ceiling";
}

// A frame declaring more than the *configured* cap (not the compile-time
// default) poisons the stream at exactly the configured boundary.
TEST(ServeConfigTest, FrameDecoderEnforcesTheConfiguredBoundary) {
  constexpr uint32_t kCap = 128;
  {
    FrameDecoder decoder(kCap);
    std::string stream;
    EncodeFrame(std::string(kCap, 'x'), &stream);  // exactly at the cap
    decoder.Append(stream);
    Result<std::optional<std::string>> r = decoder.Next();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ((*r)->size(), kCap);
  }
  {
    FrameDecoder decoder(kCap);
    std::string stream;
    EncodeFrame(std::string(kCap + 1, 'x'), &stream);  // one past the cap
    decoder.Append(stream);
    Result<std::optional<std::string>> r = decoder.Next();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

// ---------------------------------------------------------------------------
// Admission control and overload shedding.
// ---------------------------------------------------------------------------

TEST(ServeAdmissionTest, SlotAccountingAndRelease) {
  AdmissionController admission(2, 1);
  auto a = admission.Admit(std::chrono::milliseconds(1));
  auto b = admission.Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(admission.in_flight(), 2u);
  auto c = admission.Admit(std::chrono::milliseconds(1));
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  a->Release();
  EXPECT_EQ(admission.in_flight(), 1u);
  auto d = admission.Admit(std::chrono::milliseconds(1));
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(admission.total_rejected(), 1u);
}

TEST(ServeAdmissionTest, QueuedWaiterGetsTheFreedSlot) {
  AdmissionController admission(1, 4);
  auto held = admission.Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.ok());

  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    auto slot = admission.Admit(std::chrono::seconds(5));
    waiter_admitted.store(slot.ok());
  });
  // Give the waiter time to park in the queue, then free the slot.
  while (admission.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  held->Release();
  waiter.join();
  EXPECT_TRUE(waiter_admitted.load());
  // The waiter's slot died with its scope; nothing may leak.
  EXPECT_EQ(admission.in_flight(), 0u);
}

TEST(ServeAdmissionTest, SaturatedServerShedsWithOverloaded) {
  ServeOptions options = TestOptions();
  options.max_in_flight = 1;
  options.max_queued = 1;
  options.admission_wait = std::chrono::milliseconds(5);
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());

  // Hold the only slot directly, so dispatch cannot run.
  auto held = server.admission().Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.ok());

  // Grace-period shed: the request queues, waits 5ms, then is rejected with
  // a structured kOverloaded — not queued forever, not a dropped connection.
  Response shed = server.Handle(MakeValidate(1, "in", "<a><c/></a>"));
  EXPECT_EQ(shed.header.status, WireStatus::kOverloaded);
  EXPECT_FALSE(shed.header.detail.empty());
  EXPECT_EQ(server.SnapshotStats().overload_rejected, 1u);

  // Queue-full shed: park one waiter in the queue, then a second concurrent
  // request must be rejected immediately (no waiting).
  std::atomic<bool> queued_result{false};
  std::thread queued([&] {
    auto slot = server.admission().Admit(std::chrono::seconds(5));
    queued_result.store(slot.ok());
  });
  while (server.admission().queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  Response instant = server.Handle(MakeValidate(2, "in", "<a><c/></a>"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(instant.header.status, WireStatus::kOverloaded);
  EXPECT_LT(elapsed, std::chrono::seconds(1)) << "queue-full must shed fast";

  held->Release();
  queued.join();
  EXPECT_TRUE(queued_result.load());
  // The waiter's slot was released when its scope ended; nothing leaks.
  EXPECT_EQ(server.admission().in_flight(), 0u);
}

TEST(ServeAdmissionTest, RequestsReleaseSlotsOnEveryPath) {
  ServeOptions options = TestOptions();
  options.max_in_flight = 1;
  ServerCore server(options);
  LoadExampleRegistry(&server);

  // OK path, error path, validation-reject path — after each, in_flight
  // must be back to zero (a leaked slot would wedge the server).
  (void)server.Handle(MakeTypecheck(1, "rename", "in", "good_out"));
  EXPECT_EQ(server.admission().in_flight(), 0u);
  (void)server.Handle(MakeTypecheck(2, "missing", "in", "good_out"));
  EXPECT_EQ(server.admission().in_flight(), 0u);
  (void)server.Handle(MakeTypecheck(3, "../bad", "in", "good_out"));
  EXPECT_EQ(server.admission().in_flight(), 0u);
  EXPECT_EQ(server.SnapshotStats().in_flight, 0u);
}

}  // namespace
}  // namespace pebbletc::serve
