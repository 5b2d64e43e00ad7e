#ifndef OSSM_COMMON_PARSE_FLAG_H_
#define OSSM_COMMON_PARSE_FLAG_H_

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace ossm {

// Parses the value of an integer command-line flag: all of `text` as a
// base-10 number that fits in T. A sign, whitespace, trailing characters
// or a value outside [0, max of T] is InvalidArgument naming the flag, so
// `--items=-5` and `--items=4294967396` (into a uint32_t) fail instead of
// running with 2^64 - 5 or 100 items. ossm_cli and the bench harnesses
// parse every integer flag here.
template <typename T>
StatusOr<T> ParseIntFlag(std::string_view flag, std::string_view text) {
  static_assert(std::is_integral_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  if (!text.empty() && text.front() != '-') {
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc() && ptr == end) return value;
  }
  return Status::InvalidArgument(
      "--" + std::string(flag) + "=" + std::string(text) +
      " is not an integer in [0, " +
      std::to_string(std::numeric_limits<T>::max()) + "]");
}

}  // namespace ossm

#endif  // OSSM_COMMON_PARSE_FLAG_H_
