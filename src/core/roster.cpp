#include "core/roster.h"

#include <algorithm>
#include <cmath>

#include "pacman/vdt.h"

namespace grid3::core {
namespace {

SiteConfig make_site(std::string name, std::string location,
                     std::string owner, int cpus, LrmsType lrms,
                     double disk_tb, double wan_mbps, double max_wall_hours,
                     bool dedicated, double local_load) {
  SiteConfig cfg;
  cfg.name = std::move(name);
  cfg.location = std::move(location);
  cfg.owner_vo = std::move(owner);
  cfg.cpus = cpus;
  cfg.lrms = lrms;
  cfg.disk = Bytes::tb(disk_tb);
  cfg.wan = Bandwidth::mbps(wan_mbps);
  cfg.policy.max_walltime = Time::hours(max_wall_hours);
  cfg.policy.dedicated = dedicated;
  cfg.policy.local_load = dedicated ? 0.0 : local_load;
  cfg.policy.outbound = true;
  return cfg;
}

}  // namespace

std::vector<SiteConfig> grid3_roster(double cpu_scale) {
  using L = LrmsType;
  std::vector<SiteConfig> roster;
  // --- Tier1 centers (dedicated, big disk, fat pipes, SRM-backed SEs) ---
  roster.push_back(make_site("BNL_ATLAS", "Brookhaven Natl. Lab", "usatlas",
                             360, L::kCondor, 60, 622, 120, true, 0.0));
  roster.back().deploy_srm = true;
  roster.push_back(make_site("FNAL_CMS", "Fermi Natl. Accelerator Lab",
                             "uscms", 400, L::kPbs, 80, 622, 1300, true,
                             0.0));
  roster.back().deploy_srm = true;
  // --- ATLAS university sites ---
  roster.push_back(make_site("UC_ATLAS", "U. Chicago", "usatlas", 128,
                             L::kCondor, 8, 155, 72, false, 0.55));
  roster.push_back(make_site("BU_ATLAS", "Boston U.", "usatlas", 96,
                             L::kPbs, 6, 155, 48, false, 0.60));
  roster.push_back(make_site("IU_ATLAS", "Indiana U.", "usatlas", 64,
                             L::kPbs, 4, 155, 48, false, 0.55));
  roster.push_back(make_site("UTA_DPCC", "U. Texas Arlington", "usatlas",
                             96, L::kLsf, 10, 155, 96, false, 0.50));
  roster.push_back(make_site("UM_ATLAS", "U. Michigan", "usatlas", 48,
                             L::kCondor, 3, 100, 48, false, 0.65));
  roster.push_back(make_site("OU_OSCER", "U. Oklahoma", "usatlas", 128,
                             L::kPbs, 8, 100, 24, false, 0.70));
  roster.push_back(make_site("UNM_HPC", "U. New Mexico", "usatlas", 128,
                             L::kPbs, 8, 100, 24, false, 0.65));
  roster.push_back(make_site("ANL_HEP", "Argonne Natl. Lab", "usatlas", 32,
                             L::kCondor, 2, 155, 48, true, 0.0));
  roster.push_back(make_site("HU_HEP", "Hampton U.", "usatlas", 24,
                             L::kPbs, 1.5, 45, 24, false, 0.55));
  // --- CMS sites ---
  roster.push_back(make_site("CIT_PG", "Caltech", "uscms", 128, L::kCondor,
                             10, 622, 1300, true, 0.0));
  roster.push_back(make_site("UCSD_PG", "U.C. San Diego", "uscms", 96,
                             L::kCondor, 8, 155, 96, false, 0.55));
  roster.push_back(make_site("UFL_PG", "U. Florida", "uscms", 144, L::kPbs,
                             12, 155, 1300, false, 0.45));
  roster.push_back(make_site("UFL_HPC", "U. Florida HPC", "uscms", 80,
                             L::kPbs, 6, 155, 36, false, 0.65));
  roster.push_back(make_site("KNU_CMS", "Kyungpook Natl. U.", "uscms", 32,
                             L::kPbs, 2, 45, 48, false, 0.55));
  // --- SDSS ---
  roster.push_back(make_site("JHU_SDSS", "Johns Hopkins U.", "sdss", 64,
                             L::kCondor, 4, 155, 24, false, 0.60));
  roster.push_back(make_site("FNAL_SDSS", "Fermilab SDSS", "sdss", 64,
                             L::kCondor, 6, 622, 48, true, 0.0));
  // --- LIGO ---
  roster.push_back(make_site("UWM_LIGO", "U. Wisconsin-Milwaukee", "ligo",
                             128, L::kCondor, 10, 155, 48, true, 0.0));
  roster.push_back(make_site("PSU_LIGO", "Penn State", "ligo", 64,
                             L::kCondor, 4, 100, 24, false, 0.60));
  // --- BTeV ---
  roster.push_back(make_site("VU_BTEV", "Vanderbilt U.", "btev", 48,
                             L::kPbs, 3, 100, 24, false, 0.55));
  // --- iVDGL / shared computer-science resources ---
  roster.push_back(make_site("UWMAD_CS", "U. Wisconsin-Madison", "ivdgl",
                             200, L::kCondor, 10, 155, 48, false, 0.70));
  roster.push_back(make_site("UB_CCR", "U. Buffalo (ACDC)", "ivdgl", 96,
                             L::kPbs, 6, 155, 24, false, 0.65));
  roster.push_back(make_site("LBNL_PDSF", "Lawrence Berkeley Natl. Lab",
                             "ivdgl", 128, L::kLsf, 16, 622, 48, false,
                             0.35));
  roster.push_back(make_site("USC_ISI", "U. Southern California", "ivdgl",
                             32, L::kCondor, 2, 155, 24, false, 0.55));
  roster.push_back(make_site("IU_IUPUI", "Indiana U. (iGOC)", "ivdgl", 64,
                             L::kCondor, 4, 155, 48, false, 0.55));
  roster.push_back(make_site("CIT_GRID3", "Caltech shared", "ivdgl", 64,
                             L::kCondor, 4, 622, 24, false, 0.65));

  if (cpu_scale != 1.0) {
    for (SiteConfig& cfg : roster) {
      cfg.cpus = std::max(
          2, static_cast<int>(std::lround(cfg.cpus * cpu_scale)));
      cfg.disk = cfg.disk * cpu_scale;
    }
  }
  return roster;
}

std::vector<SiteConfig> replicate_roster(std::vector<SiteConfig> base,
                                         int replicas) {
  if (replicas <= 1) return base;
  const std::size_t templates = base.size();
  base.reserve(templates * static_cast<std::size_t>(replicas));
  for (int r = 1; r < replicas; ++r) {
    for (std::size_t i = 0; i < templates; ++i) {
      SiteConfig cfg = base[i];
      cfg.name += "_R" + std::to_string(r);
      base.push_back(std::move(cfg));
    }
  }
  return base;
}

std::vector<std::string> application_sites(
    const std::string& app_name, const std::vector<SiteConfig>& roster,
    std::size_t replicas) {
  // Per-VO "Grid3 Sites Used" (Table 1): owner-VO sites first, then fill
  // with other sites in roster order up to the target count.
  struct Plan {
    const char* app;
    const char* vo;
    std::size_t count;
  };
  static constexpr Plan kPlans[] = {
      {app::kAtlasGce, "usatlas", 18}, {app::kCmsMop, "uscms", 18},
      {app::kSdssCoadd, "sdss", 13},   {app::kLigoPulsar, "ligo", 1},
      {app::kBtevSim, "btev", 8},      {app::kSnb, "ivdgl", 19},
      {app::kGadu, "ivdgl", 19},       {app::kExerciser, "ivdgl", 14},
      {app::kEntrada, "ivdgl", 27},    {app::kNetloggerFtp, "ivdgl", 27},
  };
  const Plan* plan = nullptr;
  for (const Plan& p : kPlans) {
    if (app_name == p.app) {
      plan = &p;
      break;
    }
  }
  std::vector<std::string> out;
  if (plan == nullptr) return out;
  const std::size_t count = plan->count * std::max<std::size_t>(1, replicas);
  for (const SiteConfig& cfg : roster) {
    if (cfg.owner_vo == plan->vo && out.size() < count) {
      out.push_back(cfg.name);
    }
  }
  for (const SiteConfig& cfg : roster) {
    if (out.size() >= count) break;
    if (std::find(out.begin(), out.end(), cfg.name) == out.end()) {
      out.push_back(cfg.name);
    }
  }
  return out;
}

Assembled assemble_grid3(Grid3& grid, const AssembleOptions& opts) {
  Assembled result;

  for (const std::string& vo_name : canonical_vos()) {
    grid.add_vo(vo_name);
  }
  result.cern = &grid.add_external_host("CERN", Bandwidth::mbps(622));
  result.ligo_hanford =
      &grid.add_external_host("LIGO_Hanford", Bandwidth::mbps(155));

  // Table 1 user population: (users, of which app-admins).
  struct Pop {
    const char* vo;
    int users;
    int admins;
  };
  // 102 authorized users total; ~10% are application administrators.
  static constexpr Pop kPop[] = {
      {"usatlas", 25, 3}, {"uscms", 26, 3}, {"sdss", 9, 1},
      {"ligo", 7, 1},     {"btev", 1, 1},   {"ivdgl", 34, 2},
  };
  for (const Pop& p : kPop) {
    VoUsers vu;
    vu.vo = p.vo;
    for (int i = 0; i < p.admins; ++i) {
      vu.app_admins.push_back(grid.add_user(
          p.vo, std::string{p.vo} + " admin", vo::Role::kAppAdmin));
    }
    for (int i = 0; i < p.users - p.admins; ++i) {
      vu.users.push_back(
          grid.add_user(p.vo, std::string{p.vo} + " user"));
    }
    result.users.push_back(std::move(vu));
  }

  // Application packages in the iGOC Pacman cache.
  for (const char* app_name :
       {app::kAtlasGce, app::kCmsMop, app::kSdssCoadd, app::kLigoPulsar,
        app::kBtevSim, app::kSnb, app::kGadu, app::kExerciser, app::kEntrada,
        app::kNetloggerFtp}) {
    pacman::add_application_package(grid.igoc().pacman_cache(), app_name,
                                    Time::minutes(20));
  }

  const auto roster =
      replicate_roster(grid3_roster(opts.cpu_scale), opts.roster_replicas);
  for (const SiteConfig& cfg : roster) {
    const double reliability = grid.rng().uniform(opts.min_reliability,
                                                  opts.max_reliability);
    const bool rollover = cfg.name == "UB_CCR";  // ACDC's nightly cycle
    grid.add_site(cfg, reliability, rollover);
  }

  const auto replicas =
      static_cast<std::size_t>(std::max(1, opts.roster_replicas));
  for (const char* app_name :
       {app::kAtlasGce, app::kCmsMop, app::kSdssCoadd, app::kLigoPulsar,
        app::kBtevSim, app::kSnb, app::kGadu, app::kExerciser,
        app::kEntrada, app::kNetloggerFtp}) {
    for (const std::string& site_name :
         application_sites(app_name, roster, replicas)) {
      if (Site* s = grid.site(site_name)) {
        s->install_application(grid.igoc().pacman_cache(), app_name);
      }
    }
  }

  grid.start_operations();
  return result;
}

}  // namespace grid3::core
