/// \file flags.h
/// \brief A minimal command-line flag parser for the example binaries and
/// the CLI driver. Supports `--name=value` and bare `--name` boolean flags;
/// everything else is positional.

#ifndef BUTTERFLY_COMMON_FLAGS_H_
#define BUTTERFLY_COMMON_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace butterfly {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  /// True iff the flag was present on the command line.
  bool Has(const std::string& name) const;

  /// Typed accessors; return the default when the flag is absent. A present
  /// flag with an unparseable or out-of-range value is recorded as an error
  /// (and the default returned).
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  /// A count: an integer flag that must not be negative.
  size_t GetSize(const std::string& name, size_t default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were consumed by no Get* call are likely typos; calling this
  /// after all Gets returns them. (Tracking is by Get*, so call it last.)
  std::vector<std::string> UnreadFlags() const;

  /// Accumulated parse errors (bad numeric values, malformed arguments).
  const std::vector<std::string>& errors() const { return errors_; }
  bool ok() const { return errors_.empty(); }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> errors_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_COMMON_FLAGS_H_
