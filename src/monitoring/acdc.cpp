#include "monitoring/acdc.h"

#include <algorithm>

namespace grid3::monitoring {

void JobDatabase::insert(JobRecord record) {
  records_.push_back(std::move(record));
}

void JobDatabase::insert_transfer(TransferEntry entry) {
  transfers_.push_back(std::move(entry));
}

std::vector<const JobRecord*> JobDatabase::completed(const std::string& vo,
                                                     Time from,
                                                     Time to) const {
  std::vector<const JobRecord*> out;
  for (const JobRecord& r : records_) {
    if (r.vo == vo && r.success && r.finished >= from && r.finished < to) {
      out.push_back(&r);
    }
  }
  return out;
}

VoJobStats JobDatabase::stats_for(const std::string& vo, Time from,
                                  Time to) const {
  VoJobStats s;
  s.vo = vo;
  const auto jobs = completed(vo, from, to);
  s.jobs = jobs.size();
  if (jobs.empty()) return s;

  std::set<std::string> users;
  std::set<std::string> sites;
  double total_hours = 0.0;
  // month index -> (jobs, cpu_days, per-site jobs)
  std::map<int, std::size_t> month_jobs;
  std::map<int, double> month_cpu;
  std::map<int, std::map<std::string, std::size_t>> month_site_jobs;

  for (const JobRecord* r : jobs) {
    users.insert(r->user_dn);
    sites.insert(r->site);
    const double hours = r->runtime().to_hours();
    total_hours += hours;
    s.max_runtime_hours = std::max(s.max_runtime_hours, hours);
    const int mi = util::month_index_at(r->finished);
    ++month_jobs[mi];
    month_cpu[mi] += r->runtime().to_days();
    ++month_site_jobs[mi][r->site];
  }
  s.users = users.size();
  s.sites_used = sites.size();
  s.avg_runtime_hours = total_hours / static_cast<double>(jobs.size());
  s.total_cpu_days = total_hours / 24.0;

  // Peak production month by job count.
  int peak_month = month_jobs.begin()->first;
  for (const auto& [mi, n] : month_jobs) {
    if (n > month_jobs.at(peak_month)) peak_month = mi;
  }
  s.peak_rate_jobs_per_month = month_jobs.at(peak_month);
  s.peak_month = util::month_label_at(util::month_start(peak_month));
  s.peak_cpu_days = month_cpu.at(peak_month);
  const auto& site_jobs = month_site_jobs.at(peak_month);
  s.peak_resources = site_jobs.size();
  for (const auto& [site, n] : site_jobs) {
    s.max_single_resource_jobs = std::max(s.max_single_resource_jobs, n);
  }
  s.max_single_resource_percent =
      100.0 * static_cast<double>(s.max_single_resource_jobs) /
      static_cast<double>(s.peak_rate_jobs_per_month);
  return s;
}

std::vector<std::string> JobDatabase::vos() const {
  std::set<std::string> set;
  for (const JobRecord& r : records_) set.insert(r.vo);
  return {set.begin(), set.end()};
}

std::vector<std::size_t> JobDatabase::jobs_by_month(int months) const {
  std::vector<std::size_t> out(static_cast<std::size_t>(months), 0);
  for (const JobRecord& r : records_) {
    if (!r.success) continue;
    const int mi = util::month_index_at(r.finished);
    if (mi >= 0 && mi < months) ++out[static_cast<std::size_t>(mi)];
  }
  return out;
}

JobDatabase::FailureSummary JobDatabase::failures(const std::string& vo,
                                                  Time from, Time to) const {
  FailureSummary s;
  for (const JobRecord& r : records_) {
    if (!vo.empty() && r.vo != vo) continue;
    if (r.finished < from || r.finished >= to) continue;
    ++s.total;
    if (!r.success) {
      ++s.failed;
      if (r.site_problem) ++s.site_problem;
      ++s.by_class[r.failure];
    }
  }
  return s;
}

std::map<std::string, std::pair<Bytes, Bytes>>
JobDatabase::bytes_consumed_by_vo(Time from, Time to) const {
  std::map<std::string, std::pair<Bytes, Bytes>> out;
  for (const TransferEntry& t : transfers_) {
    if (t.finished < from || t.finished >= to) continue;
    auto& [total, demo] = out[t.vo];
    total += t.size;
    if (t.demo) demo += t.size;
  }
  return out;
}

std::map<std::string, Bytes> JobDatabase::bytes_consumed_by_site(
    Time from, Time to) const {
  std::map<std::string, Bytes> out;
  for (const TransferEntry& t : transfers_) {
    if (t.finished < from || t.finished >= to) continue;
    out[t.dst_site] += t.size;
  }
  return out;
}

}  // namespace grid3::monitoring
