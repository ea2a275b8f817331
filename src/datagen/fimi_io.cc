#include "datagen/fimi_io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>

namespace butterfly {

Result<std::vector<Transaction>> ParseFimi(const std::string& content) {
  std::vector<Transaction> dataset;
  std::istringstream in(content);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<Item> items;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      // Accumulated in 64 bits and stopped at the first digit that reaches
      // kInvalidItem, so no token length can overflow or wrap into range.
      uint64_t value = 0;
      for (char c : token) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          std::ostringstream msg;
          msg << "non-numeric token '" << token << "' on line " << line_no;
          return Status::InvalidArgument(msg.str());
        }
        value = value * 10 + static_cast<uint64_t>(c - '0');
        if (value >= kInvalidItem) {
          std::ostringstream msg;
          msg << "item '" << token << "' on line " << line_no
              << " is out of range (max " << kInvalidItem - 1 << ")";
          return Status::InvalidArgument(msg.str());
        }
      }
      items.push_back(static_cast<Item>(value));
    }
    if (items.empty()) continue;  // blank line
    dataset.emplace_back(static_cast<Tid>(dataset.size() + 1),
                         Itemset(std::move(items)));
  }
  return dataset;
}

Result<std::vector<Transaction>> LoadFimiFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseFimi(content.str());
}

Status SaveFimiFile(const std::string& path,
                    const std::vector<Transaction>& dataset) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  for (const Transaction& t : dataset) {
    for (size_t i = 0; i < t.items.size(); ++i) {
      if (i > 0) file << ' ';
      file << t.items[i];
    }
    file << '\n';
  }
  if (!file) {
    return Status::IOError("write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace butterfly
