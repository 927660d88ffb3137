// The one reading of the library's boolean environment switches
// (CBIP_NO_COMPILE, CBIP_NO_OBS).
#pragma once

#include <string_view>

namespace cbip {

/// Whether a switch whose variable holds `value` (std::getenv's result)
/// is on: set, non-empty and not "0".
inline bool envFlagOn(const char* value) {
  return value != nullptr && value[0] != '\0' && std::string_view(value) != "0";
}

}  // namespace cbip
