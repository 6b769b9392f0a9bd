// Site Status Catalog (paper section 5.2): "periodically tests all sites
// and stores some critical information centrally.  A web interface
// provides a list of all Grid3 sites, their location on a map, their
// status, and other important information."
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/units.h"

namespace grid3::monitoring {

enum class SiteStatus { kUnknown, kPass, kDegraded, kFail };

[[nodiscard]] const char* to_string(SiteStatus s);

/// One functional probe result.
struct ProbeResult {
  std::string probe;
  bool pass = false;
};

/// A site registers a battery of probes; the catalog runs them on its
/// verification sweep and derives a status: all pass -> kPass, some pass
/// -> kDegraded, none pass -> kFail.
using ProbeBattery = std::function<std::vector<ProbeResult>()>;

struct SiteEntry {
  std::string name;
  std::string location;  ///< institution, for the "map" view
  SiteStatus status = SiteStatus::kUnknown;
  Time last_tested;
  std::vector<ProbeResult> last_results;
};

class SiteStatusCatalog {
 public:
  void register_site(const std::string& name, const std::string& location,
                     ProbeBattery battery);

  /// Run every site's battery; returns sites whose status changed.
  std::vector<std::string> run_sweep(Time now);

  [[nodiscard]] SiteStatus status(const std::string& name) const;
  [[nodiscard]] const SiteEntry* entry(const std::string& name) const;
  [[nodiscard]] std::vector<const SiteEntry*> all() const;
  [[nodiscard]] std::size_t count(SiteStatus s) const;
  [[nodiscard]] std::size_t site_count() const { return entries_.size(); }

 private:
  struct Registered {
    SiteEntry entry;
    ProbeBattery battery;
  };
  std::map<std::string, Registered> entries_;
};

}  // namespace grid3::monitoring
