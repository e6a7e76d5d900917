#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

namespace ppdp {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    if (arg == "help") {
      help_ = true;
      continue;
    }
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

void Flags::RejectUnknown(std::string_view program,
                          std::span<const std::string_view> known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << program << ": unknown flag --" << name << "\n";
      std::exit(2);
    }
  }
}

std::string Flags::GetString(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? v : fallback;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? v : fallback;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace ppdp
