#include "simbase/error.hpp"

namespace tpio {

void fail(const std::string& msg) { throw Error(msg); }

void check_failed(const char* file, int line, const char* cond,
                  const std::string& msg) {
  std::string what = file;
  what += ':';
  what += std::to_string(line);
  what += ": check `";
  what += cond;
  what += "` failed: ";
  what += msg;
  throw Error(what);
}

}  // namespace tpio
