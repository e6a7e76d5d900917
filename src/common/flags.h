#ifndef PPDP_COMMON_FLAGS_H_
#define PPDP_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace ppdp {

/// Minimal "--key=value" / "--key value" command-line parser used by the
/// benchmark, tool and example binaries (the library itself never parses
/// argv). Every flag is kept; RejectUnknown refuses names a binary does not
/// read. A bare "--help" sets help().
class Flags {
 public:
  /// Parses argv. Arguments not starting with "--" are ignored.
  Flags(int argc, char** argv);

  /// Returns the flag value or `fallback` when absent/unparsable.
  std::string GetString(const std::string& name, const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// A misspelled flag is a usage error, never a silent default: when a
  /// parsed flag is none of `known`, prints "<program>: unknown flag
  /// --<name>" to stderr and exits 2.
  void RejectUnknown(std::string_view program, std::span<const std::string_view> known) const;

  bool help() const { return help_; }

  /// Every parsed --key=value pair, name-sorted. Run reports persist this
  /// verbatim so any bench artifact records the exact invocation.
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

}  // namespace ppdp

#endif  // PPDP_COMMON_FLAGS_H_
