#pragma once

#include <stdexcept>
#include <string>

namespace tpio {

/// Thrown on violated invariants and misuse of the simulation APIs.
///
/// The simulator favours loud failure over undefined behaviour: every
/// precondition that user code could plausibly violate is checked.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] void fail(const std::string& msg);

/// TPIO_CHECK's failure path: throws Error("<file>:<line>: check `<cond>`
/// failed: <msg>"). Out of line, so check sites carry no string building.
[[noreturn]] void check_failed(const char* file, int line, const char* cond,
                               const std::string& msg);

}  // namespace tpio

/// Precondition / invariant check that survives NDEBUG builds.
#define TPIO_CHECK(cond, msg)                                            \
  do {                                                                   \
    if (!(cond)) ::tpio::check_failed(__FILE__, __LINE__, #cond, (msg)); \
  } while (0)
