#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace aal {
namespace {

constexpr ServeOp kAllOps[] = {
    ServeOp::kHello,  ServeOp::kSubmit, ServeOp::kStatus, ServeOp::kCancel,
    ServeOp::kList,   ServeOp::kStream, ServeOp::kStats,  ServeOp::kShutdown,
};

constexpr ServeErrorCode kAllCodes[] = {
    ServeErrorCode::kParseError,      ServeErrorCode::kBadRequest,
    ServeErrorCode::kUnknownOp,       ServeErrorCode::kVersionMismatch,
    ServeErrorCode::kUnknownJob,      ServeErrorCode::kQuotaExceeded,
    ServeErrorCode::kQueueFull,       ServeErrorCode::kBadModel,
    ServeErrorCode::kBadTarget,       ServeErrorCode::kBadTuner,
    ServeErrorCode::kShuttingDown,    ServeErrorCode::kInternalError,
    ServeErrorCode::kLineTooLong,
};

/// Parses `line` expecting a typed rejection; returns the code.
ServeErrorCode rejection_code(const std::string& line) {
  try {
    (void)ServeRequest::parse(line);
  } catch (const ServeError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected ServeError for: " << line;
  return ServeErrorCode::kInternalError;
}

TEST(ServeProtocol, OpNamesRoundTrip) {
  for (const ServeOp op : kAllOps) {
    const char* name = serve_op_name(op);
    ASSERT_NE(std::string(name), "unknown");
    EXPECT_EQ(serve_op_from_name(name), op);
  }
  EXPECT_FALSE(serve_op_from_name("frobnicate").has_value());
}

TEST(ServeProtocol, ErrorCodeNamesRoundTrip) {
  for (const ServeErrorCode code : kAllCodes) {
    EXPECT_EQ(serve_error_code_from_name(serve_error_code_name(code)), code);
  }
  EXPECT_FALSE(serve_error_code_from_name("oops").has_value());
}

TEST(ServeProtocol, JobSpecDefaultsMirrorTheCliTuneSubcommand) {
  const JobSpec spec;
  EXPECT_EQ(spec.target, "gpu-pascal");
  EXPECT_EQ(spec.tuner, "bted+bao");
  EXPECT_EQ(spec.budget, 512);
  EXPECT_EQ(spec.early_stop, 400);
  EXPECT_EQ(spec.seed, 1);
  EXPECT_EQ(spec.tenant, "default");
  EXPECT_EQ(spec.priority, 0);
}

TEST(ServeProtocol, SubmitRequestRoundTripsCanonically) {
  ServeRequest req;
  req.id = 7;
  req.op = ServeOp::kSubmit;
  req.spec.model = "resnet18";
  req.spec.budget = 64;
  req.spec.tenant = "ci";
  req.spec.priority = 3;
  const std::string line = req.to_line();
  std::int64_t id = -1;
  const ServeRequest back = ServeRequest::parse(line, &id);
  EXPECT_EQ(id, 7);
  EXPECT_EQ(back.id, 7);
  EXPECT_EQ(back.op, ServeOp::kSubmit);
  EXPECT_EQ(back.spec, req.spec);
  EXPECT_EQ(back.to_line(), line);
}

TEST(ServeProtocol, SubmitDefaultsApplyToOmittedFields) {
  const ServeRequest req =
      ServeRequest::parse(R"({"id":1,"op":"submit","model":"alexnet"})");
  EXPECT_EQ(req.spec.model, "alexnet");
  EXPECT_EQ(req.spec, [] {
    JobSpec expect;
    expect.model = "alexnet";
    return expect;
  }());
}

TEST(ServeProtocol, StreamRequestCarriesJobAndCursor) {
  const ServeRequest req = ServeRequest::parse(
      R"({"id":4,"op":"stream","job":12,"from":30})");
  EXPECT_EQ(req.op, ServeOp::kStream);
  EXPECT_EQ(req.job, 12);
  EXPECT_EQ(req.from, 30);
}

TEST(ServeProtocol, MatchingVersionIsAccepted) {
  const std::string line = std::string(R"({"id":1,"op":"hello","version":")") +
                           kServeProtocolVersion + "\"}";
  EXPECT_EQ(ServeRequest::parse(line).version, kServeProtocolVersion);
}

TEST(ServeProtocol, RejectionsCarryTypedCodes) {
  EXPECT_EQ(rejection_code("garbage"), ServeErrorCode::kParseError);
  EXPECT_EQ(rejection_code(R"({"op":"hello"})"), ServeErrorCode::kBadRequest);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"frobnicate"})"),
            ServeErrorCode::kUnknownOp);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"hello","version":"serve/v0"})"),
            ServeErrorCode::kVersionMismatch);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"status"})"),
            ServeErrorCode::kBadRequest);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"submit"})"),
            ServeErrorCode::kBadRequest);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"submit","model":"x","budget":0})"),
            ServeErrorCode::kBadRequest);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"submit","model":"x","seed":-2})"),
            ServeErrorCode::kBadRequest);
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"hello","job":3})"),
            ServeErrorCode::kBadRequest);  // field not valid for the op
  EXPECT_EQ(rejection_code(R"({"id":1,"op":"status","job":"two"})"),
            ServeErrorCode::kBadRequest);  // wrong value type
  EXPECT_EQ(rejection_code(R"({"id":-3,"op":"hello"})"),
            ServeErrorCode::kBadRequest);
}

TEST(ServeProtocol, ParseSurfacesTheIdBeforeFailing) {
  std::int64_t id = -1;
  EXPECT_THROW((void)ServeRequest::parse(R"({"id":41,"op":"status"})", &id),
               ServeError);
  EXPECT_EQ(id, 41);  // error frames can echo the request id
}

TEST(ServeProtocol, OkResponseRoundTrips) {
  const std::string line = serve_ok_line(
      9, {{"job", TraceValue(std::int64_t{3})},
          {"state", TraceValue("queued")},
          {"best_gflops", TraceValue(12.5)}});
  const ServeResponse resp = ServeResponse::parse(line);
  EXPECT_EQ(resp.id, 9);
  EXPECT_TRUE(resp.ok);
  ASSERT_NE(resp.find("job"), nullptr);
  EXPECT_EQ(resp.find("job")->as_int(), 3);
  EXPECT_EQ(resp.find("state")->as_string(), "queued");
  EXPECT_EQ(resp.find("best_gflops")->as_double(), 12.5);
  EXPECT_EQ(resp.find("missing"), nullptr);
}

TEST(ServeProtocol, ErrorResponseRoundTrips) {
  const std::string line = serve_error_line(
      2, ServeErrorCode::kQuotaExceeded, "tenant \"ci\" is over quota");
  const ServeResponse resp = ServeResponse::parse(line);
  EXPECT_EQ(resp.id, 2);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, ServeErrorCode::kQuotaExceeded);
  EXPECT_EQ(resp.message, "tenant \"ci\" is over quota");
}

TEST(ServeProtocol, TraceFramePayloadSurvivesEscaping) {
  // Stream frames carry raw trace JSONL lines as string payloads; the
  // escape/unescape round trip must reproduce the line byte-for-byte —
  // that is what makes a streamed trace file byte-identical.
  const std::string trace_line =
      R"({"step":0,"type":"session_begin","tuner":"bted+bao","budget":16})";
  const std::string frame = serve_ok_line(
      5, {{"frame", TraceValue("trace")}, {"line", TraceValue(trace_line)}});
  const ServeResponse resp = ServeResponse::parse(frame);
  ASSERT_NE(resp.find("line"), nullptr);
  EXPECT_EQ(resp.find("line")->as_string(), trace_line);
}

// ---------------------------------------------------------------------------
// docs/SERVING.md coverage: every example message in the document must parse
// through the real codec and serialize back to the same bytes, and every op
// and error-code wire name must be documented.

std::string read_serving_doc() {
  const std::string path =
      std::string(AALTUNE_SOURCE_DIR) + "/docs/SERVING.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ServingDocs, EveryExampleLineRoundTripsThroughTheCodec) {
  std::istringstream doc(read_serving_doc());
  std::string line;
  int requests = 0;
  int responses = 0;
  while (std::getline(doc, line)) {
    if (line.empty() || line[0] != '{') continue;
    std::vector<TraceField> fields;
    ASSERT_NO_THROW(fields = fields_from_json_object_line(line)) << line;
    EXPECT_EQ(to_json_object_line(fields), line)
        << "doc example is not in canonical form: " << line;
    ASSERT_GE(fields.size(), 2u) << line;
    if (fields[1].key == "op") {
      EXPECT_NO_THROW((void)ServeRequest::parse(line)) << line;
      ++requests;
    } else if (fields[1].key == "ok") {
      EXPECT_NO_THROW((void)ServeResponse::parse(line)) << line;
      ++responses;
    } else {
      ADD_FAILURE() << "example is neither a request nor a response: "
                    << line;
    }
  }
  // The document shows at least one request and one response per op.
  EXPECT_GE(requests, 8);
  EXPECT_GE(responses, 8);
}

/// `name` in Markdown code quotes, as the doc's tables spell it.
std::string code_quoted(const char* name) {
  std::string quoted = "`";
  quoted += name;
  quoted += '`';
  return quoted;
}

TEST(ServingDocs, EveryOpAndErrorCodeIsDocumented) {
  const std::string doc = read_serving_doc();
  EXPECT_NE(doc.find(kServeProtocolVersion), std::string::npos);
  for (const ServeOp op : kAllOps) {
    EXPECT_NE(doc.find(code_quoted(serve_op_name(op))), std::string::npos)
        << "op not documented: " << serve_op_name(op);
  }
  for (const ServeErrorCode code : kAllCodes) {
    EXPECT_NE(doc.find(code_quoted(serve_error_code_name(code))),
              std::string::npos)
        << "error code not documented: " << serve_error_code_name(code);
  }
}

}  // namespace
}  // namespace aal
