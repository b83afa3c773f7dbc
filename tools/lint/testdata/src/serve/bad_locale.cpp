// Fixture: locale-sensitive float text on the wire path (mirrors src/serve/).
#include <cstdio>
#include <cstdlib>
#include <string>

double parse_value(const char* s) {
  double direct = std::strtod(s, nullptr);  // FLAG: strtod
  double loose = atof(s);                   // FLAG: atof
  return direct + loose;
}

int format_value(char* out, std::size_t n, double v) {
  return snprintf(out, n, "%.17g", v);  // FLAG: snprintf float formatting
}

double sanctioned(const char* s) {
  // A justified call keeps an inline suppression and is not reported.
  return std::strtod(s, nullptr);  // psn-lint: allow(psn-locale-safe-io)
}
