/** @file Unit tests for Status / Expected. */

#include "edgepcc/common/status.h"

#include <gtest/gtest.h>

namespace edgepcc {
namespace {

TEST(Status, DefaultIsOk)
{
    Status status;
    EXPECT_TRUE(status.isOk());
    EXPECT_TRUE(static_cast<bool>(status));
    EXPECT_EQ(status.code(), StatusCode::kOk);
    EXPECT_EQ(status.toString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    const Status status = invalidArgument("bad input");
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "bad input");
    EXPECT_EQ(status.toString(), "INVALID_ARGUMENT: bad input");
}

TEST(Status, CodePrintsItsName)
{
    EXPECT_EQ(::testing::PrintToString(StatusCode::kInvalidArgument),
              "INVALID_ARGUMENT");
}

TEST(Status, AllConstructorsMapToTheirCodes)
{
    EXPECT_EQ(outOfRange("x").code(), StatusCode::kOutOfRange);
    EXPECT_EQ(failedPrecondition("x").code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(dataLoss("x").code(), StatusCode::kDataLoss);
    EXPECT_EQ(corruptBitstream("x").code(),
              StatusCode::kCorruptBitstream);
    EXPECT_EQ(unimplemented("x").code(),
              StatusCode::kUnimplemented);
    EXPECT_EQ(internalError("x").code(), StatusCode::kInternal);
    EXPECT_EQ(notFound("x").code(), StatusCode::kNotFound);
    EXPECT_EQ(ioError("x").code(), StatusCode::kIoError);
}

TEST(Status, CodeNamesAreUnique)
{
    EXPECT_STREQ(statusCodeName(StatusCode::kOk), "OK");
    EXPECT_STRNE(statusCodeName(StatusCode::kDataLoss),
                 statusCodeName(StatusCode::kCorruptBitstream));
}

TEST(Expected, HoldsValue)
{
    Expected<int> value(42);
    ASSERT_TRUE(value.hasValue());
    EXPECT_EQ(*value, 42);
    EXPECT_TRUE(value.status().isOk());
}

TEST(Expected, HoldsError)
{
    Expected<int> error(notFound("nothing here"));
    EXPECT_FALSE(error.hasValue());
    EXPECT_FALSE(static_cast<bool>(error));
    EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

TEST(Expected, TakeValueMovesOut)
{
    Expected<std::string> value(std::string("payload"));
    const std::string taken = value.takeValue();
    EXPECT_EQ(taken, "payload");
}

TEST(Expected, ArrowOperator)
{
    Expected<std::string> value(std::string("abc"));
    EXPECT_EQ(value->size(), 3u);
}

Status
propagateHelper(bool fail)
{
    EDGEPCC_RETURN_IF_ERROR(
        fail ? dataLoss("inner") : Status::ok());
    return internalError("reached end");
}

TEST(Status, ReturnIfErrorPropagates)
{
    EXPECT_EQ(propagateHelper(true).code(), StatusCode::kDataLoss);
    EXPECT_EQ(propagateHelper(false).code(),
              StatusCode::kInternal);
}

}  // namespace
}  // namespace edgepcc
