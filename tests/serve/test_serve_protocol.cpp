/// Parse/render tests of the hpcp-serve/1 wire protocol: every malformed
/// request line must come back as a typed error response, never as an
/// exception, and rendering must be canonical (shortest round-trip
/// doubles, fixed key order) so responses can be compared byte-for-byte.

#include <gtest/gtest.h>

#include "src/serve/protocol.hpp"

namespace hpcp::serve {
namespace {

Request parse_ok(const std::string& line) {
  Request req;
  ErrorInfo err;
  EXPECT_TRUE(parse_request(line, &req, &err)) << err.message;
  return req;
}

ErrorInfo parse_fail(const std::string& line) {
  Request req;
  ErrorInfo err;
  EXPECT_FALSE(parse_request(line, &req, &err));
  return err;
}

TEST(ServeProtocol, PredictIsTheDefaultCommand) {
  const Request req = parse_ok(R"({"params":[1,2,3]})");
  EXPECT_EQ(req.cmd, Request::Cmd::kPredict);
  EXPECT_EQ(req.params, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(req.scales.empty());  // default: the model's target scales
}

TEST(ServeProtocol, ExplicitScales) {
  const Request req =
      parse_ok(R"({"params":[1.5],"scales":[64,256,1024]})");
  EXPECT_EQ(req.scales, (std::vector<std::size_t>{64, 256, 1024}));
}

TEST(ServeProtocol, MalformedJsonIsATypedError) {
  const ErrorInfo err = parse_fail("this is not json");
  EXPECT_EQ(err.code, "bad-request");
  EXPECT_NE(err.message.find("malformed JSON"), std::string::npos);
}

TEST(ServeProtocol, NonObjectRequestIsRejected) {
  EXPECT_EQ(parse_fail("[1,2,3]").code, "bad-request");
  EXPECT_EQ(parse_fail("42").code, "bad-request");
}

TEST(ServeProtocol, UnknownCommandHasItsOwnCode) {
  const ErrorInfo err = parse_fail(R"({"cmd":"frobnicate"})");
  EXPECT_EQ(err.code, "unknown-cmd");
  EXPECT_NE(err.message.find("frobnicate"), std::string::npos);
}

TEST(ServeProtocol, ParamsMustBeNonEmptyFiniteNumbers) {
  EXPECT_EQ(parse_fail(R"({"cmd":"predict"})").code, "bad-request");
  EXPECT_EQ(parse_fail(R"({"params":[]})").code, "bad-request");
  EXPECT_EQ(parse_fail(R"({"params":"abc"})").code, "bad-request");
  EXPECT_EQ(parse_fail(R"({"params":[1,"x"]})").code, "bad-request");
}

TEST(ServeProtocol, EmptyScaleListIsRejected) {
  const ErrorInfo err = parse_fail(R"({"params":[1],"scales":[]})");
  EXPECT_EQ(err.code, "bad-request");
  EXPECT_NE(err.message.find("empty scale list"), std::string::npos);
}

TEST(ServeProtocol, ScalesMustBePositiveIntegers) {
  EXPECT_EQ(parse_fail(R"({"params":[1],"scales":[0]})").code,
            "bad-request");
  EXPECT_EQ(parse_fail(R"({"params":[1],"scales":[-4]})").code,
            "bad-request");
  EXPECT_EQ(parse_fail(R"({"params":[1],"scales":[2.5]})").code,
            "bad-request");
  EXPECT_EQ(parse_fail(R"({"params":[1],"scales":[1e13]})").code,
            "bad-request");
}

TEST(ServeProtocol, IdIsEchoedVerbatimForStringsAndNumbers) {
  EXPECT_EQ(parse_ok(R"({"id":"q-1","params":[1]})").id_json, "\"q-1\"");
  EXPECT_EQ(parse_ok(R"({"id":17,"params":[1]})").id_json, "17");
  // Numeric ids are echoed as their original token: never reformatted
  // through a double (1e+05), never rounded above 2^53, never trimmed.
  EXPECT_EQ(parse_ok(R"({"id":100000,"params":[1]})").id_json, "100000");
  EXPECT_EQ(parse_ok(R"({"id":9007199254740993,"params":[1]})").id_json,
            "9007199254740993");
  EXPECT_EQ(parse_ok(R"({"id":1.50,"params":[1]})").id_json, "1.50");
  EXPECT_EQ(parse_fail(R"({"id":[1],"params":[1]})").code, "bad-request");
}

TEST(ServeProtocol, IdSurvivesARequestThatFailsLater) {
  Request req;
  ErrorInfo err;
  EXPECT_FALSE(parse_request(R"({"id":"bad","params":[]})", &req, &err));
  EXPECT_EQ(req.id_json, "\"bad\"");  // echoed in the error response
}

TEST(ServeProtocol, ControlCommandsParse) {
  EXPECT_EQ(parse_ok(R"({"cmd":"ping"})").cmd, Request::Cmd::kPing);
  EXPECT_EQ(parse_ok(R"({"cmd":"stats"})").cmd, Request::Cmd::kStats);
  EXPECT_EQ(parse_ok(R"({"cmd":"shutdown"})").cmd,
            Request::Cmd::kShutdown);
  const Request reload =
      parse_ok(R"({"cmd":"reload","model":"m.bin"})");
  EXPECT_EQ(reload.cmd, Request::Cmd::kReload);
  EXPECT_EQ(reload.model_path, "m.bin");
}

TEST(ServeProtocol, TraceDumpParsesItsTargetPath) {
  const Request dump =
      parse_ok(R"({"cmd":"trace-dump","path":"/tmp/t.json"})");
  EXPECT_EQ(dump.cmd, Request::Cmd::kTraceDump);
  EXPECT_EQ(dump.model_path, "/tmp/t.json");
  // The path is optional at the protocol layer (the server rejects a
  // missing one with its own typed error), but its type is not.
  EXPECT_EQ(parse_ok(R"({"cmd":"trace-dump"})").cmd,
            Request::Cmd::kTraceDump);
  EXPECT_EQ(parse_fail(R"({"cmd":"trace-dump","path":7})").code,
            "bad-request");
}

TEST(ServeProtocol, RenderPredictionsIsCanonical) {
  EXPECT_EQ(render_predictions("\"a\"", 3, {64, 256}, {0.5, 0.125}),
            R"({"id":"a","ok":true,"model_version":3,)"
            R"("scales":[64,256],"predictions":[0.5,0.125]})");
  // Without an id the field is omitted entirely (not rendered as null).
  EXPECT_EQ(render_predictions("", 1, {8}, {0.1}),
            R"({"ok":true,"model_version":1,)"
            R"("scales":[8],"predictions":[0.1]})");
}

TEST(ServeProtocol, RenderErrorQuotesThePayload) {
  EXPECT_EQ(render_error("7", 2, {"io", "file \"x\" missing"}),
            R"({"id":7,"ok":false,"model_version":2,)"
            R"("error":{"code":"io","message":"file \"x\" missing"}})");
}

}  // namespace
}  // namespace hpcp::serve
