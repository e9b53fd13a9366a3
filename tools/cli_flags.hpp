#pragma once

// Checked numeric flag values for the command-line tools: a malformed or
// out-of-range value is a usage error (exit 2), never an uncaught
// std::invalid_argument / std::out_of_range abort.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>

namespace sesp {

// The whole of `value` as a T. Anything else prints "bad integer for <key>"
// ("bad number" for a floating-point T) and exits 2.
template <typename T>
T flag_value(const std::string& key, const std::string& value) {
  T out{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    std::cerr << "bad " << (std::is_integral_v<T> ? "integer" : "number")
              << " for " << key << "\n";
    std::exit(2);
  }
  return out;
}

}  // namespace sesp
