/**
 * @file
 * Lightweight error-reporting types used across EdgePCC.
 *
 * EdgePCC does not use exceptions on codec hot paths; fallible
 * operations return a Status (or Expected<T>) that callers must check.
 */

#ifndef EDGEPCC_COMMON_STATUS_H
#define EDGEPCC_COMMON_STATUS_H

#include <cassert>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

namespace edgepcc {

/** Broad error categories, patterned after absl::StatusCode. */
enum class StatusCode {
    kOk = 0,
    kInvalidArgument,
    kOutOfRange,
    kFailedPrecondition,
    kDataLoss,
    kCorruptBitstream,
    kUnimplemented,
    kInternal,
    kNotFound,
    kIoError,
    kResourceExhausted,
};

/** Human-readable name for a StatusCode. */
const char *statusCodeName(StatusCode code);

/** Writes statusCodeName(code), so test failures print the name. */
std::ostream &operator<<(std::ostream &os, StatusCode code);

/**
 * Result of a fallible operation: a code plus an optional message.
 *
 * A default-constructed Status is OK. Statuses are cheap to copy when
 * OK (no message allocation).
 */
class [[nodiscard]] Status
{
  public:
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status ok() { return Status(); }

    bool isOk() const { return code_ == StatusCode::kOk; }
    explicit operator bool() const { return isOk(); }

    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Formats "CODE: message" for logs and test failures. */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

/** Convenience constructors mirroring the common codes. */
Status invalidArgument(std::string message);
Status outOfRange(std::string message);
Status failedPrecondition(std::string message);
Status dataLoss(std::string message);
Status corruptBitstream(std::string message);
Status unimplemented(std::string message);
Status internalError(std::string message);
Status notFound(std::string message);
Status ioError(std::string message);
Status resourceExhausted(std::string message);

/**
 * Value-or-error wrapper for functions that produce a T.
 *
 * Modeled on std::expected (not yet available in the target
 * toolchain's standard library at C++20).
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}
    Expected(Status status) : status_(std::move(status))
    {
        assert(!status_.isOk() && "Expected from OK status needs a value");
    }

    bool hasValue() const { return value_.has_value(); }
    explicit operator bool() const { return hasValue(); }

    const Status &status() const { return status_; }

    T &value()
    {
        assert(hasValue());
        return *value_;
    }
    const T &value() const
    {
        assert(hasValue());
        return *value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    /** Moves the value out; only valid when hasValue(). */
    T takeValue()
    {
        assert(hasValue());
        return std::move(*value_);
    }

  private:
    std::optional<T> value_;
    Status status_;
};

}  // namespace edgepcc

/**
 * Propagates a non-OK Status from an expression to the caller.
 * Usage: EDGEPCC_RETURN_IF_ERROR(writer.flush());
 */
#define EDGEPCC_RETURN_IF_ERROR(expr)                                       \
    do {                                                                    \
        ::edgepcc::Status edgepcc_status_ = (expr);                         \
        if (!edgepcc_status_.isOk())                                        \
            return edgepcc_status_;                                        \
    } while (false)

#endif  // EDGEPCC_COMMON_STATUS_H
