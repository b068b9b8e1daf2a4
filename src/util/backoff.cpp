#include "util/backoff.hpp"

#include <thread>

namespace cfsf::util {

void SleepFor(std::chrono::duration<double, std::milli> duration) {
  if (duration.count() <= 0.0) return;
  // The one sanctioned raw sleep in src/ (naked-sleep-in-library's home).
  std::this_thread::sleep_for(duration);
}

}  // namespace cfsf::util
