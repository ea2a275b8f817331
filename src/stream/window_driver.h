/// \file window_driver.h
/// \brief Pumps a TransactionSource through a SlidingWindow, invoking a
/// listener on every slide and a report callback on a configurable cadence.

#ifndef BUTTERFLY_STREAM_WINDOW_DRIVER_H_
#define BUTTERFLY_STREAM_WINDOW_DRIVER_H_

#include <cstddef>
#include <functional>
#include <optional>

#include "common/timing.h"
#include "stream/sliding_window.h"
#include "stream/transaction_source.h"

namespace butterfly {

/// Per-record slide notification: the appended record and, once the window is
/// full, the record it evicted.
struct SlideEvent {
  const Transaction& added;
  const Transaction* evicted;  // nullptr while the window is filling
};

/// Per-report notification: the window plus the nanoseconds spent inside the
/// slide callback since the previous report — when the callback maintains a
/// miner this is the stream's mining-stage cost, already attributed to the
/// reported window so callers need no separate timing accumulator.
struct ReportEvent {
  const SlidingWindow& window;
  double slide_ns;
};

/// Drives a source into a window.
class WindowDriver {
 public:
  using SlideCallback = std::function<void(const SlideEvent&)>;
  using ReportCallback = std::function<void(const ReportEvent&)>;

  /// \param window the window to drive; must outlive the driver.
  /// \param report_stride emit a report every `report_stride` records once
  ///        the window is full; 0 disables reporting.
  WindowDriver(SlidingWindow* window, size_t report_stride = 1)
      : window_(window), report_stride_(report_stride) {}

  void set_on_slide(SlideCallback cb) { on_slide_ = std::move(cb); }
  void set_on_report(ReportCallback cb) { on_report_ = std::move(cb); }

  /// Pumps up to `max_records` records (all if 0). Returns the number pumped.
  size_t Run(TransactionSource* source, size_t max_records = 0) {
    size_t pumped = 0;
    while (max_records == 0 || pumped < max_records) {
      std::optional<Transaction> next = source->Next();
      if (!next) break;
      Step(std::move(*next));
      ++pumped;
    }
    return pumped;
  }

  /// Pushes a single record through the window.
  void Step(Transaction t) {
    std::optional<Transaction> evicted = window_->Append(std::move(t));
    if (on_slide_) {
      SlideEvent event{window_->transactions().back(),
                       evicted ? &*evicted : nullptr};
      Stopwatch watch;
      on_slide_(event);
      slide_ns_ += watch.Seconds() * 1e9;
    }
    if (on_report_ && report_stride_ > 0 && window_->Full() &&
        window_->stream_position() % report_stride_ == 0) {
      ReportEvent event{*window_, slide_ns_};
      slide_ns_ = 0;
      on_report_(event);
    }
  }

  /// Nanoseconds spent inside the slide callback since the last report.
  double slide_ns() const { return slide_ns_; }

 private:
  SlidingWindow* window_;
  size_t report_stride_;
  SlideCallback on_slide_;
  ReportCallback on_report_;
  double slide_ns_ = 0;
};

}  // namespace butterfly

#endif  // BUTTERFLY_STREAM_WINDOW_DRIVER_H_
