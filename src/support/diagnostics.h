// Error reporting and invariant checking for the Sherlock libraries.
//
// Conventions:
//  * `Error` (an exception) reports violations of API contracts and invalid
//    user input (bad programs, infeasible mappings, malformed instructions).
//  * `SHERLOCK_ASSERT` guards internal invariants; it throws `InternalError`
//    so that tests can observe violations without aborting the process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace sherlock {

/// Concatenates all arguments into one string using operator<<.
template <typename... Args>
std::string strCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Base class of all exceptions thrown by Sherlock libraries.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Violation of an internal invariant (a bug in Sherlock itself).
class InternalError : public Error {
 public:
  using Error::Error;
};

/// Invalid input program or malformed IR.
class IRError : public Error {
 public:
  using Error::Error;
};

/// Front-end syntax/semantic error. Carries source line/column.
class ParseError : public Error {
 public:
  ParseError(std::string message, int line, int column)
      : Error(strCat("line ", line, ":", column, ": ", message)),
        line_(line),
        column_(column) {}

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Mapping/scheduling failure (e.g. DAG does not fit the target array).
class MappingError : public Error {
 public:
  using Error::Error;
};

/// Simulator-detected inconsistency (bad instruction stream, OOB access).
class SimulationError : public Error {
 public:
  using Error::Error;
};

/// Static program verification failure (src/verify): a compiled program
/// violates an ISA/array constraint or disagrees with its source DAG.
/// Carries the violated rule name and, when the violation anchors to one
/// instruction, its index in the program (kNoInstruction otherwise).
class VerificationError : public Error {
 public:
  static constexpr long kNoInstruction = -1;

  VerificationError(const std::string& message, std::string rule,
                    long instructionIndex = kNoInstruction)
      : Error(message),
        rule_(std::move(rule)),
        instructionIndex_(instructionIndex) {}

  const std::string& rule() const { return rule_; }
  long instructionIndex() const { return instructionIndex_; }

 private:
  std::string rule_;
  long instructionIndex_;
};

namespace detail {
template <typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void argFail(const Parts&... parts) {
  throw Error(strCat(parts...));
}
}  // namespace detail

/// Throws `Error` unless `condition` holds. The message is the
/// concatenation of `parts` (as by strCat), built only on failure, so a
/// passing check costs one branch however rich its message.
template <typename... Parts>
inline void checkArg(bool condition, const Parts&... parts) {
  if (!condition) [[unlikely]]
    detail::argFail(parts...);
}

namespace detail {
[[noreturn]] inline void assertFail(const char* expr, const char* file,
                                    int line, const std::string& message) {
  throw InternalError(strCat(file, ":", line, ": assertion `", expr,
                             "` failed", message.empty() ? "" : ": ",
                             message));
}
}  // namespace detail

}  // namespace sherlock

#define SHERLOCK_ASSERT(cond, ...)                                   \
  do {                                                               \
    if (!(cond))                                                     \
      ::sherlock::detail::assertFail(#cond, __FILE__, __LINE__,      \
                                     ::sherlock::strCat(__VA_ARGS__)); \
  } while (false)
