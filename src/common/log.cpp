#include "common/log.hpp"

#include <cstdio>

namespace psn {

void log_warning(std::string_view msg) {
  std::fprintf(stderr, "[psn WARN ] %.*s\n", static_cast<int>(msg.size()),
               msg.data());
}

}  // namespace psn
