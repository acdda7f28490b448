#include "sim/time.h"

#include <cstdio>

namespace erasmus::sim {

std::string to_string(Duration d) {
  char buf[64];
  const uint64_t ns = d.ns();
  if (ns >= 1'000'000'000ull) {
    std::snprintf(buf, sizeof(buf), "%.3f s", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1'000'000ull) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000ull) {
    std::snprintf(buf, sizeof(buf), "%.3f us", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

}  // namespace erasmus::sim
