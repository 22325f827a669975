// Error handling for the waferscale library.
//
// Precondition violations and configuration errors throw `wsp::Error`; the
// simulators themselves are exception-free on their hot paths.
#pragma once

#include <stdexcept>
#include <string>

namespace wsp {

/// Base exception for all library errors (bad configuration, violated
/// preconditions, infeasible design requests).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws `wsp::Error` with `message` when `condition` is false.
/// Used to validate public-API preconditions.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}
/// Literal-message overload: builds the std::string only on failure, so a
/// passing check on a hot path costs one branch.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace wsp
