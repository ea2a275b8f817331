/// \file checkpoint.h
/// \brief Versioned, CRC-guarded checkpoint files with atomic replacement.
///
/// On-disk layout:
///
///   magic   8 bytes  "BFLYCKPT"
///   version u32      format version (kCheckpointVersion)
///   size    u64      payload byte count
///   payload size bytes (component sections; see DESIGN.md §10)
///   crc     u32      CRC-32 over version|size|payload
///
/// WriteCheckpointFile writes the frame to `<path>.tmp`, fsyncs it, renames
/// it over \p path, and fsyncs the parent directory — so a crash at any
/// point leaves either the old snapshot or the new one, never a torn file.
/// ReadCheckpointFile validates magic, version and CRC and returns Status
/// errors (never asserts) on unknown, truncated or corrupted input.

#ifndef BUTTERFLY_PERSIST_CHECKPOINT_H_
#define BUTTERFLY_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace butterfly::persist {

/// Current checkpoint format version. Bump on any layout change and teach
/// ReadCheckpointFile (or the section readers) to migrate or reject.
/// v2: the index section carries the row-store mode byte and
/// container-tagged rows (kind + pin flag + array/bitmap/run payload).
/// v3: CONF section carries the release-policy identity byte and its knobs
/// (policy_epsilon, policy_top_k); the sanitizer section is the configured
/// policy's own tagged section (BFLE for Butterfly, PVBS/CTNL/HVHT for the
/// DP backends).
/// v4: CONF section drops the bias-DP memo capacity.
/// v5: CONF section drops the previous-window bias-reuse switch and
/// tolerance and the thread count; BFLE holds only the epoch and the RPUB
/// republish cache, and RPUB drops the idle budget.
/// v6: the CET arena holds only frequent nodes, each counting only the
/// window's frequent items, and a node's flags drop the frequent bit.
/// v7: the miner section CETM holds only min_support and the WIND window.
/// The index and arena sections are gone: restore rebuilds the bitmap index
/// and the CET from the window.
inline constexpr uint32_t kCheckpointVersion = 7;

/// File magic; also the grep-able signature of a snapshot file.
inline constexpr char kCheckpointMagic[8] = {'B', 'F', 'L', 'Y',
                                             'C', 'K', 'P', 'T'};

/// Frames \p payload and atomically replaces \p path with it. On success
/// \p bytes_written (optional) receives the total file size.
Status WriteCheckpointFile(const std::string& path, const std::string& payload,
                           uint64_t* bytes_written = nullptr);

/// Reads and validates a checkpoint file, returning its payload. Fails with
/// kNotFound for a missing file, kInvalidArgument for a bad magic or an
/// unsupported version (the message names the found version), and kIOError
/// for truncation or a CRC mismatch.
Result<std::string> ReadCheckpointFile(const std::string& path);

}  // namespace butterfly::persist

#endif  // BUTTERFLY_PERSIST_CHECKPOINT_H_
