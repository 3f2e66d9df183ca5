#include "edgepcc/common/status.h"

#include <ostream>

namespace edgepcc {

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
      case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::kDataLoss: return "DATA_LOSS";
      case StatusCode::kCorruptBitstream: return "CORRUPT_BITSTREAM";
      case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
      case StatusCode::kInternal: return "INTERNAL";
      case StatusCode::kNotFound: return "NOT_FOUND";
      case StatusCode::kIoError: return "IO_ERROR";
      case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    }
    return "UNKNOWN";
}

std::ostream &
operator<<(std::ostream &os, StatusCode code)
{
    return os << statusCodeName(code);
}

std::string
Status::toString() const
{
    if (isOk())
        return "OK";
    std::string out = statusCodeName(code_);
    if (!message_.empty()) {
        out += ": ";
        out += message_;
    }
    return out;
}

Status
invalidArgument(std::string message)
{
    return Status(StatusCode::kInvalidArgument, std::move(message));
}

Status
outOfRange(std::string message)
{
    return Status(StatusCode::kOutOfRange, std::move(message));
}

Status
failedPrecondition(std::string message)
{
    return Status(StatusCode::kFailedPrecondition, std::move(message));
}

Status
dataLoss(std::string message)
{
    return Status(StatusCode::kDataLoss, std::move(message));
}

Status
corruptBitstream(std::string message)
{
    return Status(StatusCode::kCorruptBitstream, std::move(message));
}

Status
unimplemented(std::string message)
{
    return Status(StatusCode::kUnimplemented, std::move(message));
}

Status
internalError(std::string message)
{
    return Status(StatusCode::kInternal, std::move(message));
}

Status
notFound(std::string message)
{
    return Status(StatusCode::kNotFound, std::move(message));
}

Status
ioError(std::string message)
{
    return Status(StatusCode::kIoError, std::move(message));
}

Status
resourceExhausted(std::string message)
{
    return Status(StatusCode::kResourceExhausted,
                  std::move(message));
}

}  // namespace edgepcc
