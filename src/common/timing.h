/// \file timing.h
/// \brief The one clock of the program: a steady-clock Stopwatch, the six
/// stages of a release, the nanoseconds a release spent in each of them
/// (StageSpans) and a lap clock that times consecutive stages.
///
/// A release's stages are timed where their work runs — the engine laps
/// mining and expansion, the engine and the policy lap the partition, the
/// policy laps bias, noise and emit — into one StageSpans that travels
/// unchanged to every reader: ReleaseStats, FleetStats and the bench
/// records. The spans of a release are disjoint intervals of its wall time,
/// so their Total() never exceeds it (fig8's `release/serial` row checks
/// how much of it they cover). Fig. 8 of the paper splits per-window cost
/// the same way: Mining alg (mine + expand), Opt (partition + bias) and
/// Basic (noise + emit).

#ifndef BUTTERFLY_COMMON_TIMING_H_
#define BUTTERFLY_COMMON_TIMING_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <string_view>

namespace butterfly {

/// A steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// The stages of one release, in the order a release runs them.
enum class Stage {
  kMine,       ///< miner maintenance: the appends since the previous release
  kExpand,     ///< the walk to every frequent itemset, and freeing it
  kPartition,  ///< FEC counts and profile construction
  kBias,       ///< the configured scheme's per-FEC bias setting
  kNoise,      ///< per-itemset perturbation and release assembly
  kEmit,       ///< republish-cache epoch advance and release seal
};

inline constexpr size_t kStageCount = static_cast<size_t>(Stage::kEmit) + 1;

/// Stage names in enum order. They are the bench JSON keys (`<name>_ns`).
inline constexpr std::array<std::string_view, kStageCount> kStageNames = {
    "mine", "expand", "partition", "bias", "noise", "emit"};

/// Nanoseconds per stage.
struct StageSpans {
  std::array<double, kStageCount> ns{};

  double& operator[](Stage stage) { return ns[static_cast<size_t>(stage)]; }
  double operator[](Stage stage) const {
    return ns[static_cast<size_t>(stage)];
  }

  StageSpans& operator+=(const StageSpans& other) {
    for (size_t i = 0; i < kStageCount; ++i) ns[i] += other.ns[i];
    return *this;
  }

  /// The attributed time: the sum over every stage.
  double Total() const {
    double total = 0;
    for (double stage_ns : ns) total += stage_ns;
    return total;
  }
};

/// Times consecutive stages: each Lap adds the time since construction or
/// the previous Lap to one stage of \p spans. With spans == nullptr it
/// reads no clock and records nothing.
class StageClock {
 public:
  explicit StageClock(StageSpans* spans)
      : spans_(spans),
        last_(spans != nullptr ? Clock::now() : Clock::time_point{}) {}

  void Lap(Stage stage) {
    if (spans_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    (*spans_)[stage] +=
        std::chrono::duration<double, std::nano>(now - last_).count();
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  StageSpans* spans_;
  Clock::time_point last_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_TIMING_H_
