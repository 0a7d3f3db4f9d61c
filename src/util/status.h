#ifndef OPAQ_UTIL_STATUS_H_
#define OPAQ_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace opaq {

/// Machine-readable error category carried by a `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kIoError,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
};

/// Returns a stable human-readable name for `code` ("OK", "INVALID_ARGUMENT",
/// ...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation: either OK or a code plus message.
///
/// This project follows the Google style guide's no-exceptions rule; every
/// operation that can fail at runtime (I/O, malformed input, configuration
/// validation) reports through `Status` or `Result<T>`. Programmer errors are
/// enforced with `OPAQ_CHECK` instead.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with `code` and a diagnostic `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "CODE: message".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal_status {

/// Aborts naming `status`: the one out-of-line failure path of
/// `Result<T>::value()` on an error, so the accessor inlines to a test and
/// a load.
[[noreturn]] void DieOfValueOnError(const Status& status);

}  // namespace internal_status

/// Either a value of type `T` or an error `Status`. Analogous to
/// `absl::StatusOr<T>`.
template <typename T>
class Result {
 public:
  /// Implicit from value and from error status so `return value;` and
  /// `return Status::IoError(...);` both work in functions returning
  /// `Result<T>`.
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                            // NOLINT(runtime/explicit)
      : storage_(std::move(status)) {
    OPAQ_CHECK(!std::get<Status>(storage_).ok())
        << "Result<T> constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(storage_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(storage_);
  }

  /// Accessors die if the result holds an error; callers must test `ok()`
  /// (or use `value_or`) on any path where failure is possible.
  T& value() & {
    CheckHoldsValue();
    return *std::get_if<T>(&storage_);
  }
  const T& value() const& {
    CheckHoldsValue();
    return *std::get_if<T>(&storage_);
  }
  T&& value() && {
    CheckHoldsValue();
    return std::move(*std::get_if<T>(&storage_));
  }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckHoldsValue() const {
    if (__builtin_expect(!ok(), 0)) {
      internal_status::DieOfValueOnError(*std::get_if<Status>(&storage_));
    }
  }

  std::variant<T, Status> storage_;
};

/// Propagates a non-OK status out of the current function.
#define OPAQ_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::opaq::Status opaq_status_ = (expr);       \
    if (!opaq_status_.ok()) return opaq_status_; \
  } while (false)

/// Evaluates a Result<T> expression; on error returns its status, otherwise
/// assigns the value to `lhs` (declaration or existing variable).
#define OPAQ_ASSIGN_OR_RETURN(lhs, expr)             \
  OPAQ_ASSIGN_OR_RETURN_IMPL_(                       \
      OPAQ_STATUS_CONCAT_(opaq_result_, __LINE__), lhs, expr)
#define OPAQ_STATUS_CONCAT_INNER_(a, b) a##b
#define OPAQ_STATUS_CONCAT_(a, b) OPAQ_STATUS_CONCAT_INNER_(a, b)
#define OPAQ_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace opaq

#endif  // OPAQ_UTIL_STATUS_H_
