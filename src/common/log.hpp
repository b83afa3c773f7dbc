#pragma once

#include <string_view>

namespace psn {

/// Writes `msg` to stderr as one `[psn WARN ] ...` line. Unconditional: the
/// library warns only when a run stops short of its horizon.
void log_warning(std::string_view msg);

}  // namespace psn
