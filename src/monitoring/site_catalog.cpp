#include "monitoring/site_catalog.h"

namespace grid3::monitoring {

const char* to_string(SiteStatus s) {
  switch (s) {
    case SiteStatus::kUnknown: return "unknown";
    case SiteStatus::kPass: return "pass";
    case SiteStatus::kDegraded: return "degraded";
    case SiteStatus::kFail: return "fail";
  }
  return "?";
}

void SiteStatusCatalog::register_site(const std::string& name,
                                      const std::string& location,
                                      ProbeBattery battery) {
  Registered reg;
  reg.entry.name = name;
  reg.entry.location = location;
  reg.battery = std::move(battery);
  entries_.insert_or_assign(name, std::move(reg));
}

std::vector<std::string> SiteStatusCatalog::run_sweep(Time now) {
  std::vector<std::string> changed;
  for (auto& [name, reg] : entries_) {
    const auto results = reg.battery();
    std::size_t passed = 0;
    for (const ProbeResult& r : results) {
      if (r.pass) ++passed;
    }
    SiteStatus status = SiteStatus::kUnknown;
    if (!results.empty()) {
      if (passed == results.size()) {
        status = SiteStatus::kPass;
      } else if (passed > 0) {
        status = SiteStatus::kDegraded;
      } else {
        status = SiteStatus::kFail;
      }
    }
    if (status != reg.entry.status) changed.push_back(name);
    reg.entry.status = status;
    reg.entry.last_tested = now;
    reg.entry.last_results = results;
  }
  return changed;
}

SiteStatus SiteStatusCatalog::status(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? SiteStatus::kUnknown : it->second.entry.status;
}

const SiteEntry* SiteStatusCatalog::entry(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

std::vector<const SiteEntry*> SiteStatusCatalog::all() const {
  std::vector<const SiteEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, reg] : entries_) out.push_back(&reg.entry);
  return out;
}

std::size_t SiteStatusCatalog::count(SiteStatus s) const {
  std::size_t n = 0;
  for (const auto& [name, reg] : entries_) {
    if (reg.entry.status == s) ++n;
  }
  return n;
}

}  // namespace grid3::monitoring
