#pragma once

// Positional arguments of the example programs, read strictly: a value is
// decimal digits only (no sign on an unsigned value, no trailing characters,
// no hex) within the example's bounds. Anything else prints one usage line
// on stderr and exits 2, before the example runs anything.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace psn::examples {

/// Upper bound on a simulated horizon in seconds: about 31 years, far below
/// the 2^63 ns a SimTime holds, so no horizon arithmetic can overflow.
inline constexpr long long kMaxSeconds = 1'000'000'000;

class Args {
 public:
  /// `usage` is the example's usage line, e.g. "smart_office [seconds]".
  Args(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Argument `index` (argv[index]) as an integer in [min, max], or
  /// `fallback` when it is absent.
  template <typename T>
  T get(int index, const char* name, T fallback, T min, T max) const {
    if (argc_ <= index) return fallback;
    const char* const text = argv_[index];
    const char* const end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < min || value > max) {
      std::fprintf(stderr,
                   "usage: %s (%s must be an integer in [%s, %s], got '%s')\n",
                   usage_, name, std::to_string(min).c_str(),
                   std::to_string(max).c_str(), text);
      std::exit(2);
    }
    return value;
  }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace psn::examples
