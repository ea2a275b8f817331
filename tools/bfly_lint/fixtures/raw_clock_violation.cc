// bfly_lint fixture: clocks read outside common/timing.h. Every marked line
// must produce a raw-clock finding; the justified deadline, the duration
// type and the steady_clock named in this comment must not. Never compiled.
#include <chrono>

namespace butterfly {

double ElapsedNs() {
  const auto start = std::chrono::steady_clock::now();  // VIOLATION raw-clock
  const auto end = std::chrono::steady_clock::now();  // VIOLATION raw-clock
  return std::chrono::duration<double, std::nano>(end - start).count();
}

long WallSeconds() {
  using std::chrono::system_clock;  // VIOLATION raw-clock
  return static_cast<long>(system_clock::to_time_t(  // VIOLATION raw-clock
      system_clock::now()));  // VIOLATION raw-clock
}

using Fine = std::chrono::high_resolution_clock;  // VIOLATION raw-clock

const char* ClockName() { return "steady_clock"; }

bool Expired(std::chrono::nanoseconds budget) {
  // bfly-lint: allow(raw-clock) fixture exercising the suppression path
  static const auto deadline = std::chrono::steady_clock::now() + budget;
  return budget.count() < 0 && deadline.time_since_epoch().count() < 0;
}

}  // namespace butterfly
