#include "core/status.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace valentine {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllErrorCodesDistinct) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, CodeNameRoundTripsEveryCode) {
  const StatusCode all[] = {
      StatusCode::kOk,
      StatusCode::kInvalidArgument,
      StatusCode::kNotFound,
      StatusCode::kOutOfRange,
      StatusCode::kIOError,
      StatusCode::kParseError,
      StatusCode::kInternal,
      StatusCode::kDeadlineExceeded,
      StatusCode::kCancelled,
      StatusCode::kResourceExhausted,
  };
  for (StatusCode code : all) {
    const char* name = StatusCodeName(code);
    ASSERT_NE(name, nullptr);
    auto parsed = StatusCodeFromName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, code) << name;
  }
  EXPECT_FALSE(StatusCodeFromName("NoSuchCode").has_value());
  EXPECT_FALSE(StatusCodeFromName("").has_value());
}

TEST(StatusTest, ToStringUsesMachineReadableName) {
  EXPECT_EQ(Status::DeadlineExceeded("budget gone").ToString(),
            "DeadlineExceeded: budget gone");
  EXPECT_EQ(Status::Cancelled("stop").ToString(), "Cancelled: stop");
  EXPECT_EQ(Status::ResourceExhausted("oom").ToString(),
            "ResourceExhausted: oom");
}

TEST(StatusTest, WithCodeFactory) {
  Status s = Status::WithCode(StatusCode::kIOError, "disk");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk");
  // kOk drops the message and yields a plain OK status.
  Status ok = Status::WithCode(StatusCode::kOk, "ignored");
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty());
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

Result<std::vector<std::string>> MakeWords() {
  return std::vector<std::string>{"alpha", "beta", "gamma"};
}

// Range-for extends only the outermost temporary's lifetime, so the
// loop reads freed storage unless ValueOrDie() on a temporary returns
// the value itself rather than a reference into the Result.
TEST(ResultTest, IteratesValueOfTemporary) {
  std::string joined;
  for (const std::string& word : MakeWords().ValueOrDie()) joined += word;
  EXPECT_EQ(joined, "alphabetagamma");
}

TEST(ResultTest, ArrowAccess) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

namespace {
Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}
Status Chained(int x) {
  VALENTINE_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}
}  // namespace

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace valentine
