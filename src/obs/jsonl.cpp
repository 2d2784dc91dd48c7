#include "obs/jsonl.hpp"

#include <cstdlib>

namespace rc::obs {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool jsonString(const std::string& line, const std::string& key,
                std::string* out) {
  const std::string pat = "\"" + key + "\":\"";
  const auto at = line.find(pat);
  if (at == std::string::npos) return false;
  std::string r;
  for (std::size_t i = at + pat.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      r.push_back(line[++i]);
    } else if (line[i] == '"') {
      *out = r;
      return true;
    } else {
      r.push_back(line[i]);
    }
  }
  return false;
}

bool jsonNumber(const std::string& line, const std::string& key, double* out) {
  const std::string pat = "\"" + key + "\":";
  const auto at = line.find(pat);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at + pat.size(), nullptr);
  return true;
}

}  // namespace rc::obs
