#include "persist/engine_checkpoint.h"

#include <utility>

#include "common/timing.h"
#include "persist/checkpoint.h"
#include "persist/serializer.h"

namespace butterfly::persist {

Status SaveEngineCheckpoint(const StreamPrivacyEngine& engine,
                            const std::string& path,
                            CheckpointWriteStats* stats) {
  Stopwatch watch;
  CheckpointWriter writer;
  engine.Checkpoint(&writer);
  uint64_t bytes = 0;
  Status status = WriteCheckpointFile(path, writer.data(), &bytes);
  if (!status.ok()) return status;
  if (stats != nullptr) {
    stats->bytes = bytes;
    stats->seconds = watch.Seconds();
  }
  return Status::OK();
}

Result<StreamPrivacyEngine> LoadEngineCheckpoint(const std::string& path) {
  Result<std::string> payload = ReadCheckpointFile(path);
  if (!payload.ok()) return payload.status();
  CheckpointReader reader(*payload);
  Result<StreamPrivacyEngine> engine =
      StreamPrivacyEngine::FromCheckpoint(&reader);
  if (!engine.ok()) return engine.status();
  if (!reader.AtEnd()) {
    return Status::IOError("checkpoint corrupt: " +
                           std::to_string(reader.remaining()) +
                           " trailing bytes after the engine state: " + path);
  }
  return engine;
}

}  // namespace butterfly::persist
