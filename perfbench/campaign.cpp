// One simulated campaign, measured from the outside.
//
// Builds the named workload's catalog ScenarioSpec, hands it to
// workload::CatalogRun on the modern stack, runs it to the workload's
// horizon, and prints one JSON line: set-up and run cost, the catalog
// digest, correctness checks, every layer's counters read through public
// accessors, and -- in campaign_bench_traced -- the self time of every
// wrapped layer entry point.
//
//   campaign_bench --workload NAME [--seed N] [--hours H]
//
// --hours overrides the workload's horizon (the smoke test uses a tiny
// one).  The fabric is set up kSetups times (the last one runs) and
// setup_s is the median, so one slow set-up does not set it.  The run
// alternates host-speed probes with slices of the horizon; run_*_s cover
// the slices only and probe_*_s the probes, which run.py uses to rescale
// every time to a fixed host speed.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// arguments.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/grid3.h"
#include "trace.h"
#include "util/calendar.h"
#include "workload/catalog.h"

namespace {

using namespace grid3;

/// A benchmark workload: a catalog entry in quick mode, cut to a horizon,
/// with its job volume raised.
struct Workload {
  const char* name;
  const char* scenario;
  double hours;   ///< simulated horizon from the epoch
  double volume;  ///< multiplier on the quick-mode job scale
};

constexpr Workload kWorkloads[] = {
    // 270 sites, ~29k CPUs, the historical app mix: the monitoring plane
    // and local background load do the work.
    {"fabric-sweep", "grid30-2month", 24.0, 10.0},
    // 27 sites, CMS chains + ATLAS batches + iVDGL backfill at raised
    // volume: the job path (broker, GIIS, planner, placement, RLS, GRAM)
    // does the work.
    {"multi-vo-production", "mixed-opportunistic", 72.0, 20.0},
};

constexpr int kSetups = 3;

/// The run is cut into this many equal slices of simulated time, with one
/// host-speed probe before each.  Stepping run_until leaves the campaign's
/// events, and so its digest, unchanged.
constexpr int kSlices = 128;

/// A fixed amount of host work that belongs to no simulator layer.  The
/// host is shared: the same campaign's CPU time swings by up to 1.6x within
/// seconds as neighbours load the machine.  Timing this probe between
/// slices tracks that swing (correlation 0.95 over 21 campaigns of one
/// seed), so run.py can rescale run times to a fixed host speed.  It mixes
/// four independent multiply streams, which contend for execution ports,
/// with 1 MiB copies, which contend for cache and memory bandwidth; either
/// alone tracked less of the swing.
class HostProbe {
 public:
  HostProbe() : src_(kWords, 1), dst_(kWords, 0) {}

  void run() {
    std::uint64_t a = sink_ | 1, b = a + 2, c = a + 4, d = a + 6;
    for (int i = 0; i < 100000; ++i) {
      a = a * 0x9E3779B97F4A7C15ULL + (a >> 29);
      b = b * 0xBF58476D1CE4E5B9ULL + (b >> 31);
      c = c * 0x94D049BB133111EBULL + (c >> 27);
      d = d * 0xD6E8FEB86659FD93ULL + (d >> 33);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      std::copy(src_.begin(), src_.end(), dst_.begin());
      src_[i] = dst_[i + 1] + 1;
    }
    sink_ += (a ^ b ^ c ^ d) + dst_[sink_ % kWords];
  }

  /// Depends on every probe's result, so no probe can be optimised away.
  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 17;  // 1 MiB
  std::vector<std::uint64_t> src_;
  std::vector<std::uint64_t> dst_;
  std::uint64_t sink_ = 0;
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 20031025;
  double hours = 0.0;  ///< 0 = the workload's own horizon
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload NAME "
               "[--seed N] [--hours H]\n",
               msg.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) a.workload = &w;
        }
        if (a.workload == nullptr) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--hours") {
        a.hours = std::stod(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (a.hours < 0.0) usage("--hours out of range");
  if (a.hours == 0.0) a.hours = a.workload->hours;
  return a;
}

/// The spec the benchmark hands to CatalogRun.
workload::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed) {
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get(w.scenario, seed);
  spec.quick_job_scale *= w.volume;
  for (workload::CampaignSpec& c : spec.campaigns) {
    // At raised volume the BNL gatekeeper breaker trips now and then,
    // which also quarantines the ATLAS archive SE.  Without a fallback
    // every ATLAS job then holds and re-matches on each freed slot until
    // re-admission, and that hold storm's length -- hence the campaign's
    // cost -- swings several-fold from seed to seed.  Give ATLAS the same
    // CERN fallback the CMS campaign has.
    if (c.archive_fallbacks.empty() && !c.archive_site.empty()) {
      c.archive_fallbacks = {"CERN"};
    }
  }
  return spec;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// Per-layer counters from the fabric's public accessors.
std::vector<std::pair<std::string, double>> layer_counts(
    workload::CatalogRun& run, const workload::RunResult& result) {
  core::Grid3& grid = run.scenario().grid();
  core::Igoc& igoc = grid.igoc();
  std::map<std::string, double> c;

  c["sim.events"] = static_cast<double>(run.sim().executed());
  c["sim.heap_scheduled"] = static_cast<double>(run.sim().heap_scheduled());

  c["monitoring.bus_publishes"] = static_cast<double>(igoc.bus().published());
  c["monitoring.bus_keys"] = static_cast<double>(igoc.bus().key_count());
  c["monitoring.rrd_updates"] =
      static_cast<double>(igoc.ml_repository().updates());
  c["monitoring.acdc_records"] = static_cast<double>(igoc.job_db().size());

  for (const auto& site : grid.sites()) {
    const gram::Gatekeeper& gk = site->gatekeeper();
    c["gram.submissions"] += static_cast<double>(gk.submissions());
    c["gram.failures"] += static_cast<double>(gk.failures());
    c["gram.overload_rejections"] +=
        static_cast<double>(gk.overload_rejections());
  }
  c["gram.condorg_retries"] = static_cast<double>(grid.condor_g().retries());

  c["gridftp.transfers"] = static_cast<double>(grid.ftp_client().started());
  c["gridftp.failed"] = static_cast<double>(grid.ftp_client().failed());
  c["net.reallocs"] = static_cast<double>(grid.network().reallocs());
  c["net.links_solved"] = static_cast<double>(grid.network().links_solved());

  for (const std::string& vo : core::canonical_vos()) {
    if (const broker::ResourceBroker* b = grid.broker(vo)) {
      c["broker.submissions"] += static_cast<double>(b->submissions());
      c["broker.match_cycles"] += static_cast<double>(b->match_cycles());
      c["broker.matches"] += static_cast<double>(b->matches());
      c["broker.holds"] += static_cast<double>(b->holds());
      c["broker.rebinds"] += static_cast<double>(b->rebinds());
      c["broker.stale_matches"] += static_cast<double>(b->stale_matches());
      c["broker.rank_evals"] += static_cast<double>(b->rank_evals());
      c["broker.rank_cache_hits"] += static_cast<double>(b->rank_cache_hits());
    }
    c["workflow.dags"] += static_cast<double>(grid.dagman(vo).dags_run());
    if (const placement::PlacementLedger* l = grid.placement(vo)) {
      c["placement.acquired"] += static_cast<double>(l->acquired());
      c["placement.rejected"] += static_cast<double>(l->rejected());
      c["placement.fallthroughs"] += static_cast<double>(l->fallthroughs());
    }
    if (const rls::ReplicaLocationService* r = grid.rls(vo)) {
      c["rls.registrations"] += static_cast<double>(r->journal().size());
      c["rls.indexed_lfns"] += static_cast<double>(r->rli().indexed_lfns());
      c["rls.replayed"] += static_cast<double>(r->journal().replayed());
      c["rls.lost_registrations"] +=
          static_cast<double>(r->lost_registrations());
    }
  }
  c["workload.workflows_launched"] = static_cast<double>(result.workflows);

  if (const health::SiteHealthMonitor* h = grid.health()) {
    c["health.trips"] = static_cast<double>(h->trips());
    c["health.probes"] = static_cast<double>(h->probes());
  }
  return {c.begin(), c.end()};
}

/// Correctness checks on the finished campaign; name -> passed.
std::vector<std::pair<std::string, bool>> checks(
    workload::CatalogRun& run, const workload::ScenarioSpec& spec,
    const workload::RunResult& result) {
  const monitoring::JobDatabase& db = run.scenario().grid().igoc().job_db();
  std::vector<std::pair<std::string, bool>> out;

  out.emplace_back("jobs_conserved",
                   result.jobs == result.completed + result.failed);

  std::size_t per_vo = 0;
  for (const std::string& vo : db.vos()) {
    per_vo += db.stats_for(vo, Time::zero(), Time::max()).jobs;
  }
  out.emplace_back("per_vo_totals_match", per_vo == result.completed);

  // Every campaign reached the accounting; a scenario without campaigns
  // (the historical app mix) must still have run jobs.
  bool launched = result.jobs > 0;
  if (!spec.campaigns.empty()) launched = launched && result.workflows > 0;
  for (const workload::CampaignSpec& c : spec.campaigns) {
    bool seen = false;
    for (const monitoring::JobRecord& r : db.records()) {
      if (r.app == c.app) {
        seen = true;
        break;
      }
    }
    launched = launched && seen;
  }
  out.emplace_back("every_campaign_launched", launched);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const workload::ScenarioSpec spec = make_spec(*args.workload, args.seed);

  // Set up kSetups times; the last fabric is the one that runs.
  std::vector<double> setup_times;
  std::unique_ptr<workload::CatalogRun> run_ptr;
  for (int i = 0; i < kSetups; ++i) {
    run_ptr.reset();
    const double t0 = wall_seconds();
    run_ptr = std::make_unique<workload::CatalogRun>(spec, /*quick=*/true,
                                                     workload::modern_stack());
    run_ptr->start();
    setup_times.push_back(wall_seconds() - t0);
  }
  workload::CatalogRun& run = *run_ptr;
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];

  HostProbe probe;
  double run_cpu_s = 0.0;
  double run_wall_s = 0.0;
  double probe_cpu_s = 0.0;
  double probe_wall_s = 0.0;
  perfbench::trace_reset();
  for (int i = 1; i <= kSlices; ++i) {
    const double cpu0 = cpu_seconds();
    const double wall0 = wall_seconds();
    probe.run();
    const double cpu1 = cpu_seconds();
    const double wall1 = wall_seconds();
    run.run_until(util::month_start(0) +
                  Time::hours(args.hours * i / kSlices));
    run_wall_s += wall_seconds() - wall1;
    run_cpu_s += cpu_seconds() - cpu1;
    probe_cpu_s += cpu1 - cpu0;
    probe_wall_s += wall1 - wall0;
  }
  const double rss_mb = peak_rss_mb();
  const std::vector<perfbench::SpanTotal> spans = perfbench::trace_totals();

  const workload::RunResult result = run.finish();
  const auto counts = layer_counts(run, result);
  const auto verdicts = checks(run, spec, result);

  bool ok = true;
  std::ostringstream js;
  js.precision(17);
  js << "{\"workload\":" << quoted(args.workload->name)
     << ",\"seed\":" << args.seed << ",\"hours\":" << args.hours
     << ",\"traced\":" << (perfbench::tracing() ? "true" : "false")
     << ",\"digest\":" << quoted(result.digest) << ",\"setup_s\":" << setup_s
     << ",\"run_cpu_s\":" << run_cpu_s << ",\"run_wall_s\":" << run_wall_s
     << ",\"probe_cpu_s\":" << probe_cpu_s
     << ",\"probe_wall_s\":" << probe_wall_s
     << ",\"probe_sink\":" << probe.sink() << ",\"peak_rss_mb\":" << rss_mb << ",\"jobs\":" << result.jobs
     << ",\"completed\":" << result.completed
     << ",\"failed\":" << result.failed
     << ",\"workflows\":" << result.workflows << ",\"checks\":{";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    js << (i ? "," : "") << quoted(verdicts[i].first) << ":"
       << (verdicts[i].second ? "true" : "false");
    ok = ok && verdicts[i].second;
  }
  js << "},\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    js << (i ? "," : "") << quoted(counts[i].first) << ":" << counts[i].second;
  }
  js << "},\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    js << (i ? "," : "") << "{\"name\":" << quoted(spans[i].name)
       << ",\"calls\":" << spans[i].calls << ",\"self_s\":" << spans[i].self_s
       << "}";
  }
  js << "]}";
  std::printf("%s\n", js.str().c_str());
  return ok ? 0 : 1;
}
