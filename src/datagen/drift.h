/// \file drift.h
/// \brief Concept-drift stream generation.
///
/// Stream mining exists because distributions change. The drift generator
/// produces a stream whose latent pattern pool rotates gradually from one
/// QUEST pool to another over a configurable span, so experiments can
/// measure how Butterfly behaves when window contents — and hence FEC
/// structures and vulnerable patterns — churn: republish-cache hit rates,
/// utility stability.

#ifndef BUTTERFLY_DATAGEN_DRIFT_H_
#define BUTTERFLY_DATAGEN_DRIFT_H_

#include <cstdint>

#include "common/status.h"
#include "datagen/quest_generator.h"

namespace butterfly {

struct DriftConfig {
  /// Generator for the initial regime; `seed` here also seeds the mixing.
  QuestConfig before;
  /// Generator for the final regime (its num_transactions is ignored).
  QuestConfig after;
  /// Records 0..drift_start-1 come purely from `before`.
  size_t drift_start = 0;
  /// Records past drift_start blend linearly into `after` over this many
  /// records; after drift_start + drift_span the stream is purely `after`.
  size_t drift_span = 1;
  /// Total records to emit.
  size_t num_transactions = 10000;

  Status Validate() const;
};

/// Generates the drifting stream: each record is drawn from `before`'s or
/// `after`'s regime with probability following the linear drift schedule.
/// Deterministic for a fixed config.
Result<std::vector<Transaction>> GenerateDriftStream(const DriftConfig& config);

}  // namespace butterfly

#endif  // BUTTERFLY_DATAGEN_DRIFT_H_
