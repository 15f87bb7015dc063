#ifndef VALENTINE_CORE_STATUS_H_
#define VALENTINE_CORE_STATUS_H_

/// \file status.h
/// Error-handling primitives in the Arrow/RocksDB idiom.
///
/// Library code never throws across module boundaries; fallible operations
/// return a Status (or a Result<T> when they also produce a value).

#include <optional>
#include <string>
#include <utility>

namespace valentine {

/// Machine-readable category of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIOError,
  kParseError,
  kInternal,
  kDeadlineExceeded,    ///< a steady-clock time budget ran out
  kCancelled,           ///< a CancellationToken fired
  kResourceExhausted,   ///< a bounded resource (memory, quota) ran dry
};

/// Stable machine-readable name of a code ("DeadlineExceeded", ...).
/// This is the spelling serialized into journals and JSON reports, so
/// failure taxonomies are greppable; it must never change for existing
/// codes.
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName; std::nullopt for unknown spellings.
std::optional<StatusCode> StatusCodeFromName(const std::string& name);

/// \brief Outcome of a fallible operation: OK, or an error code + message.
///
/// Cheap to copy in the OK case (no allocation). Use the static factories:
///
///     if (rows == 0) return Status::InvalidArgument("table has no rows");
///
/// [[nodiscard]] on the class makes every discarded Status return a
/// compiler warning (fatal under -Werror=unused-result, which the build
/// enables); discard deliberately with a commented (void) cast.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs an OK status explicitly.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// Generic factory for code-driven construction (journal replay, fault
  /// plans). kOk yields an OK status and drops the message.
  static Status WithCode(StatusCode code, std::string msg) {
    if (code == StatusCode::kOk) return Status();
    return Status(code, std::move(msg));
  }

  /// True when the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  /// Human-readable error description; empty for OK.
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>" for logging.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief A value or an error: the return type of fallible producers.
///
///     Result<Table> r = CsvReader::ReadFile(path);
///     if (!r.ok()) return r.status();
///     Table t = std::move(r).ValueOrDie();
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access the value; undefined behaviour if !ok(). On a temporary
  /// the value is moved out and returned by value, so it outlives the
  /// Result: `for (const auto& x : f().ValueOrDie())` is safe.
  const T& ValueOrDie() const& { return *value_; }
  T ValueOrDie() && { return std::move(*value_); }
  const T& operator*() const& { return *value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define VALENTINE_RETURN_NOT_OK(expr)       \
  do {                                      \
    ::valentine::Status _st = (expr);       \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace valentine

#endif  // VALENTINE_CORE_STATUS_H_
