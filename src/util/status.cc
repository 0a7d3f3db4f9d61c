#include "util/status.h"

namespace opaq {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
  }
  return "UNKNOWN";
}

namespace internal_status {

void DieOfValueOnError(const Status& status) {
  internal_check::CheckFailureStream("ok()", __FILE__, __LINE__)
      << "Result::value() on error: " << status.ToString();
  std::abort();  // not reached: the stream aborts as it is destroyed
}

}  // namespace internal_status

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace opaq
