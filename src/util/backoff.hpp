// The one sanctioned way library code waits on wall-clock time.
//
// Raw std::this_thread::sleep_for in src/ is a lint violation
// (`naked-sleep-in-library`): an open-coded sleep is invisible to
// review.  Every bounded wait in the library (the DeltaFolder's poll,
// the CheckpointManager's tick) goes through util::SleepFor instead, so
// each one is greppable from this single site.
#pragma once

#include <chrono>

namespace cfsf::util {

/// Sleeps for `duration`; a no-op when it is not positive.  The single
/// call site the `naked-sleep-in-library` lint rule funnels library
/// waits through.
void SleepFor(std::chrono::duration<double, std::milli> duration);

}  // namespace cfsf::util
