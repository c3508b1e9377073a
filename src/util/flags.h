// Minimal command-line flag parsing for benchmark and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name.
// Dashes and underscores in flag names are interchangeable (--batch-cap
// == --batch_cap); lookups may use either spelling. Positional arguments
// (tfsn_cli's command) are kept in order in passthrough().

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tfsn {

/// Parses argv into a key->value map. Positional arguments and unrecognized
/// tokens are preserved in `passthrough()` order.
class Flags {
 public:
  Flags(int argc, char** argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& def = "") const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def = false) const;

  const std::vector<std::string>& passthrough() const { return passthrough_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> passthrough_;
};

}  // namespace tfsn
