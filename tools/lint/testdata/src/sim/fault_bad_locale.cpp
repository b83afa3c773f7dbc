// Fixture: a locale-sensitive number parse in the fault grammar (mirrors
// src/sim/fault*, whose "0.5"-style seconds must read the same under any
// LC_NUMERIC).
#include <cstdlib>

double parse_seconds(const char* field) {
  return std::strtod(field, nullptr);  // FLAG: strtod
}

long long parse_ppm(const char* field) {
  return std::strtoll(field, nullptr, 10);  // FLAG: strtoll
}
