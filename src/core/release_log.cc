#include "core/release_log.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

namespace butterfly {

Status AppendRelease(std::string* out, const std::string& label,
                     const SanitizedOutput& release) {
  if (label.find_first_of(" \n") != std::string::npos) {
    return Status::InvalidArgument("release label must not contain spaces");
  }
  std::string& text = *out;
  text += "#release ";
  text += label.empty() ? "-" : label;
  text += ' ';
  const auto put = [&text](auto number, char separator) {
    char digits[24];
    text.append(digits,
                std::to_chars(digits, digits + sizeof(digits), number).ptr);
    text += separator;
  };
  put(release.window_size(), ' ');
  put(release.min_support(), ' ');
  put(release.size(), '\n');
  for (const SanitizedItemset& item : release.items()) {
    if (item.itemset.empty()) text += ' ';
    for (Item i : item.itemset) put(i, ' ');
    put(item.sanitized_support, '\n');
  }
  text += '\n';
  return Status::OK();
}

Status WriteRelease(std::ostream* out, const std::string& label,
                    const SanitizedOutput& release) {
  // The whole release is formatted into one buffer and written once.
  std::string text;
  if (Status s = AppendRelease(&text, label, release); !s.ok()) return s;
  out->write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!*out) return Status::IOError("write failed");
  return Status::OK();
}

Result<std::vector<LoggedRelease>> ReadReleases(std::istream* in) {
  std::vector<LoggedRelease> releases;
  std::string line;
  size_t line_no = 0;
  LoggedRelease* current = nullptr;
  size_t expected_items = 0;

  auto parse_error = [&](const std::string& what) {
    std::ostringstream msg;
    msg << what << " on line " << line_no;
    return Status::InvalidArgument(msg.str());
  };

  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) {
      current = nullptr;
      continue;
    }
    if (line.rfind("#release", 0) == 0) {
      std::istringstream header(line.substr(8));
      LoggedRelease release;
      if (!(header >> release.label >> release.window_size >>
            release.min_support >> expected_items)) {
        return parse_error("malformed release header");
      }
      releases.push_back(std::move(release));
      current = &releases.back();
      continue;
    }
    if (current == nullptr) {
      return parse_error("item line outside a release block");
    }
    std::istringstream tokens(line);
    std::vector<Support> numbers;
    Support value = 0;
    while (tokens >> value) numbers.push_back(value);
    if (!tokens.eof()) return parse_error("non-numeric token");
    if (numbers.size() < 2) {
      return parse_error("item line needs at least one item and a support");
    }
    Support support = numbers.back();
    numbers.pop_back();
    std::vector<Item> items;
    items.reserve(numbers.size());
    for (Support n : numbers) {
      if (n < 0) return parse_error("negative item id");
      items.push_back(static_cast<Item>(n));
    }
    current->items.emplace_back(Itemset(std::move(items)), support);
  }

  for (const LoggedRelease& release : releases) {
    (void)release;
  }
  return releases;
}

Status AppendReleaseToFile(const std::string& path, const std::string& label,
                           const SanitizedOutput& release) {
  std::ofstream out(path, std::ios::app);
  if (!out) return Status::IOError("cannot open '" + path + "' for append");
  return WriteRelease(&out, label, release);
}

Result<std::vector<LoggedRelease>> ReadReleasesFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  return ReadReleases(&in);
}

Result<size_t> RecoverReleaseLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return size_t{0};  // no log yet: nothing to recover
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  in.close();

  // Walk whole lines, remembering the byte offset just past the last block
  // that completed (header, its declared item count, terminating blank line).
  // Anything after that offset — a torn tail from a crash mid-append, or a
  // line without its trailing newline — is cut.
  size_t good_end = 0;
  size_t complete = 0;
  size_t pos = 0;
  bool in_block = false;
  size_t items_left = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;  // unterminated final line: torn
    const std::string_view line(text.data() + pos, eol - pos);
    const size_t next = eol + 1;
    if (!in_block) {
      if (line.empty()) {
        good_end = next;  // benign separator between blocks
      } else if (line.rfind("#release", 0) == 0) {
        std::istringstream header{std::string(line.substr(8))};
        std::string label;
        Support window_size = 0, min_support = 0;
        if (!(header >> label >> window_size >> min_support >> items_left)) {
          break;  // torn header
        }
        in_block = true;
      } else {
        break;  // stray line outside a block
      }
    } else if (items_left > 0) {
      if (line.empty()) break;  // block ended short of its declared count
      --items_left;
    } else {
      if (!line.empty()) break;  // missing terminating blank line
      in_block = false;
      good_end = next;
      ++complete;
    }
    pos = next;
  }

  if (good_end < text.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path, good_end, ec);
    if (ec) {
      return Status::IOError("cannot truncate torn release log '" + path +
                             "': " + ec.message());
    }
  }
  return complete;
}

}  // namespace butterfly
