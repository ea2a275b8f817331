/// \file engine_checkpoint.h
/// \brief File-level checkpoint/restore of a StreamPrivacyEngine.
///
/// SaveEngineCheckpoint serializes the whole pipeline (config, window,
/// republish cache, epoch; the bitmap index and the CET are rebuilt from the
/// window on load) into one CRC-guarded file, atomically replacing any
/// previous snapshot at the same path — a crash mid-write leaves the prior
/// snapshot intact. LoadEngineCheckpoint is
/// self-contained: the engine's capacity and config are read from the file,
/// validated, and the restored engine emits byte-identical releases to the
/// uninterrupted run it was checkpointed from (see DESIGN.md §10).

#ifndef BUTTERFLY_PERSIST_ENGINE_CHECKPOINT_H_
#define BUTTERFLY_PERSIST_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/stream_engine.h"

namespace butterfly::persist {

/// Size and latency of one checkpoint write, for operational logging.
struct CheckpointWriteStats {
  uint64_t bytes = 0;     ///< total snapshot file size
  double seconds = 0;     ///< wall-clock time of serialize + write + sync
};

/// Snapshots \p engine to \p path (write temp, fsync, rename — atomic).
Status SaveEngineCheckpoint(const StreamPrivacyEngine& engine,
                            const std::string& path,
                            CheckpointWriteStats* stats = nullptr);

/// Rebuilds an engine from a snapshot file. Fails with a clean Status on a
/// missing, truncated, corrupted or version-mismatched file.
Result<StreamPrivacyEngine> LoadEngineCheckpoint(const std::string& path);

}  // namespace butterfly::persist

#endif  // BUTTERFLY_PERSIST_ENGINE_CHECKPOINT_H_
