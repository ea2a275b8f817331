#include "common/flags.h"

#include <cerrno>
#include <cstdlib>

namespace butterfly {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      errors_.push_back("bare '--' is not a valid flag");
      continue;
    }
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";  // boolean flag
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("flag --" + name + " expects an integer, got '" +
                      it->second + "'");
    return default_value;
  }
  if (errno == ERANGE) {
    errors_.push_back("flag --" + name + " is out of range: '" + it->second +
                      "'");
    return default_value;
  }
  return static_cast<int64_t>(v);
}

size_t FlagParser::GetSize(const std::string& name,
                           size_t default_value) const {
  // Defaults are small counts, so the round trip through int64_t is exact;
  // a negative result can only come from the command line.
  const int64_t v = GetInt(name, static_cast<int64_t>(default_value));
  if (v >= 0) return static_cast<size_t>(v);
  errors_.push_back("flag --" + name + " expects a non-negative count, got '" +
                    values_.at(name) + "'");
  return default_value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("flag --" + name + " expects a number, got '" +
                      it->second + "'");
    return default_value;
  }
  if (errno == ERANGE) {
    errors_.push_back("flag --" + name + " is out of range: '" + it->second +
                      "'");
    return default_value;
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  errors_.push_back("flag --" + name + " expects a boolean, got '" + v + "'");
  return default_value;
}

std::vector<std::string> FlagParser::UnreadFlags() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!read_.count(name)) unread.push_back(name);
  }
  return unread;
}

}  // namespace butterfly
