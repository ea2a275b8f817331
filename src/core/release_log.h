/// \file release_log.h
/// \brief Serialization of sanitized releases (and raw outputs) to a simple
/// line-oriented text format, so downstream consumers — dashboards, offline
/// auditors, the CLI — can persist and replay a stream of releases.
///
/// Format (one release per block):
///   #release <window_label> <window_size> <min_support> <num_items>
///   <item item item ...> <sanitized_support>
///   ...
///   (blank line terminates the block)
///
/// The bias/variance metadata is intentionally NOT serialized: the log is
/// the public artifact, and publishing per-itemset bias would hand the
/// adversary the exact centers. (Scheme-level parameters are assumed public
/// per Kerckhoffs; per-release realized values are not.)

#ifndef BUTTERFLY_CORE_RELEASE_LOG_H_
#define BUTTERFLY_CORE_RELEASE_LOG_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sanitized_output.h"

namespace butterfly {

/// One deserialized release block: the public view of a window's release.
struct LoggedRelease {
  std::string label;
  Support window_size = 0;
  Support min_support = 0;
  std::vector<std::pair<Itemset, Support>> items;
};

/// Appends one release block to \p out. Fails, appending nothing, if
/// \p label holds a space or a newline.
Status AppendRelease(std::string* out, const std::string& label,
                     const SanitizedOutput& release);

/// Appends one release block to \p out: AppendRelease's bytes, written once.
Status WriteRelease(std::ostream* out, const std::string& label,
                    const SanitizedOutput& release);

/// Parses every release block from \p in.
Result<std::vector<LoggedRelease>> ReadReleases(std::istream* in);

/// File-based conveniences.
Status AppendReleaseToFile(const std::string& path, const std::string& label,
                           const SanitizedOutput& release);
Result<std::vector<LoggedRelease>> ReadReleasesFromFile(
    const std::string& path);

/// Crash recovery for an append-mode release log: scans \p path and
/// truncates a torn trailing block (a header whose declared item count never
/// completed, or a block missing its terminating blank line) so the log ends
/// on a whole release and appending can resume. A missing file is fine (a
/// fresh log). Returns the number of complete releases kept. Used by the
/// checkpoint-restore path: the engine snapshot restores internal state,
/// this restores the public artifact to a consistent prefix.
Result<size_t> RecoverReleaseLog(const std::string& path);

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_RELEASE_LOG_H_
