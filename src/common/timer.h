#ifndef OSSM_COMMON_TIMER_H_
#define OSSM_COMMON_TIMER_H_

#include <chrono>

namespace ossm {

// Monotonic wall-clock stopwatch used for all reported timings.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Scope-exit stopwatch: assigns the enclosing scope's elapsed wall-clock
// seconds to *seconds on destruction. Replaces the manual
// WallTimer/ElapsedSeconds bookkeeping around timed bodies; note the target
// is written only at scope exit, so read it after the scope closes.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* seconds) : seconds_(seconds) {}
  ~ScopedTimer() { *seconds_ = timer_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* seconds_;
  WallTimer timer_;
};

}  // namespace ossm

#endif  // OSSM_COMMON_TIMER_H_
