// Outside-in layer timing for campaign_bench_traced.
//
// Each TRACE_ENTRY names one public entry point of a src/ layer by its
// mangled symbol.  CMakeLists.txt turns every such line into
// `-Wl,--wrap=<symbol>`, so calls into the entry point from *other*
// object files land in the __wrap_ function below, which opens a span
// and forwards to __real_<symbol> (the original).  Calls from inside the
// defining object file are resolved before the link and stay invisible;
// an entry point that records 0 calls while its layer's counters show
// work must be dropped from this list, not reported as idle.
//
// Parameter types follow the Itanium C++ ABI: `this` is the first
// argument, and a class passed by value that is not trivially copyable
// travels as a pointer to the caller's temporary, so it is declared
// here as a reference and forwarded untouched.  Return types are the
// originals, so a hidden result pointer is forwarded the same way.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "batch/scheduler.h"
#include "broker/broker.h"
#include "gram/condor_g.h"
#include "gram/gatekeeper.h"
#include "gridftp/gridftp.h"
#include "health/health.h"
#include "mds/giis.h"
#include "mds/gris.h"
#include "monitoring/acdc.h"
#include "net/network.h"
#include "placement/ledger.h"
#include "rls/rls.h"
#include "srm/srm.h"
#include "trace.h"
#include "workflow/dagman.h"
#include "workflow/planner.h"

namespace perfbench {
namespace {

enum Entry : int {
  kBusPublish,
  kGmondSample,
  kMlReport,
  kAcdcInsert,
  kGrisPublish,
  kGiisFind,
  kBatchSubmit,
  kGatekeeperSubmit,
  kCondorGSubmit,
  kGridFtpTransfer,
  kStartFlow,
  kBrokerSubmit,
  kBrokerSubmitGang,
  kBrokerChoose,
  kPlannerPlan,
  kDagManRun,
  kLedgerAcquire,
  kLedgerAcquireChain,
  kRlsRegister,
  kSrmReserve,
  kHealthReport,
  kHealthReportBatch,
  kEntryCount,
};

constexpr std::array<const char*, kEntryCount> kNames{
    "MetricBus::publish",
    "GangliaGmond::sample",
    "MonalisaAgent::report",
    "JobDatabase::insert",
    "Gris::publish",
    "Giis::find",
    "BatchScheduler::submit",
    "Gatekeeper::submit",
    "CondorG::submit_to",
    "GridFtpClient::transfer",
    "Network::start_flow",
    "ResourceBroker::submit",
    "ResourceBroker::submit_gang",
    "ResourceBroker::choose",
    "PegasusPlanner::plan",
    "DagMan::run",
    "PlacementLedger::acquire",
    "PlacementLedger::acquire(chain)",
    "ReplicaLocationService::register_replica",
    "StorageResourceManager::reserve",
    "SiteHealthMonitor::report",
    "SiteHealthMonitor::report_batch",
};

struct Totals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

struct Frame {
  std::int64_t start_ns;
  std::int64_t child_ns;
};

// The simulator is single-threaded, so plain statics suffice.
std::array<Totals, kEntryCount> g_totals{};
constexpr int kMaxDepth = 256;
std::array<Frame, kMaxDepth> g_stack{};
int g_depth = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Span {
 public:
  explicit Span(Entry e) : entry_{e} {
    if (g_depth == kMaxDepth) {
      std::fputs("trace: span stack overflow\n", stderr);
      std::abort();
    }
    g_stack[g_depth++] = {now_ns(), 0};
  }
  ~Span() {
    const Frame f = g_stack[--g_depth];
    const std::int64_t elapsed = now_ns() - f.start_ns;
    Totals& t = g_totals[entry_];
    ++t.calls;
    t.self_ns += elapsed - f.child_ns;
    if (g_depth > 0) g_stack[g_depth - 1].child_ns += elapsed;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Entry entry_;
};

}  // namespace

bool tracing() { return true; }

void trace_reset() { g_totals.fill({}); }

std::vector<SpanTotal> trace_totals() {
  std::vector<SpanTotal> out;
  for (int i = 0; i < kEntryCount; ++i) {
    out.push_back({kNames[i], g_totals[i].calls,
                   static_cast<double>(g_totals[i].self_ns) * 1e-9});
  }
  return out;
}

}  // namespace perfbench

using namespace grid3;

#define TRACE_ENTRY(entry, Ret, sym, params, args) \
  extern "C" Ret __real_##sym params;              \
  extern "C" Ret __wrap_##sym params {             \
    const perfbench::Span span{perfbench::entry};  \
    return __real_##sym args;                      \
  }

using SnapshotPred = std::function<bool(const mds::SiteSnapshot&)>;
using Strings = std::vector<std::string>;

// clang-format off
TRACE_ENTRY(kBusPublish, void, _ZN5grid310monitoring9MetricBus7publishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_NS_4TimeEd,
            (void* self, const std::string& site, const std::string& name, Time t, double v),
            (self, site, name, t, v))
TRACE_ENTRY(kGmondSample, void, _ZN5grid310monitoring12GangliaGmond6sampleENS_4TimeE,
            (void* self, Time now), (self, now))
TRACE_ENTRY(kMlReport, void, _ZN5grid310monitoring13MonalisaAgent6reportERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_4TimeEd,
            (void* self, const std::string& metric, Time now, double v),
            (self, metric, now, v))
TRACE_ENTRY(kAcdcInsert, void, _ZN5grid310monitoring11JobDatabase6insertENS0_9JobRecordE,
            (void* self, monitoring::JobRecord& rec), (self, rec))
TRACE_ENTRY(kGrisPublish, void, _ZN5grid33mds4Gris7publishESt17basic_string_viewIcSt11char_traitsIcEESt7variantIJNSt7__cxx1112basic_stringIcS4_SaIcEEEldbEENS_4TimeE,
            (void* self, std::string_view key, mds::AttrValue& value, Time now),
            (self, key, value, now))
TRACE_ENTRY(kGiisFind, std::vector<mds::SiteSnapshot>, _ZNK5grid33mds4Giis4findERKSt8functionIFbRKNS0_12SiteSnapshotEEENS_4TimeE,
            (const void* self, const SnapshotPred& pred, Time now), (self, pred, now))
TRACE_ENTRY(kBatchSubmit, batch::SubmitResult, _ZN5grid35batch14BatchScheduler6submitERKNS0_10JobRequestESt8functionIFvRKNS0_10JobOutcomeEEE,
            (void* self, const batch::JobRequest& req, batch::CompletionFn& done),
            (self, req, done))
TRACE_ENTRY(kGatekeeperSubmit, void, _ZN5grid34gram10Gatekeeper6submitENS0_7GramJobESt8functionIFvRKNS0_10GramResultEEE,
            (void* self, gram::GramJob& job, gram::GramCallback& done), (self, job, done))
TRACE_ENTRY(kCondorGSubmit, void, _ZN5grid34gram7CondorG9submit_toERNS0_10GatekeeperENS0_7GramJobESt8functionIFvRKNS0_10GramResultEEE,
            (void* self, gram::Gatekeeper& gk, gram::GramJob& job, gram::GramCallback& done),
            (self, gk, job, done))
TRACE_ENTRY(kGridFtpTransfer, void, _ZN5grid37gridftp13GridFtpClient8transferENS0_15TransferRequestESt8functionIFvRKNS0_14TransferRecordEEE,
            (void* self, gridftp::TransferRequest& req, gridftp::TransferCallback& done),
            (self, req, done))
TRACE_ENTRY(kStartFlow, net::FlowId, _ZN5grid33net7Network10start_flowEjjNS_5BytesESt8functionIFvRKNS0_10FlowResultEEE,
            (void* self, net::NodeId src, net::NodeId dst, Bytes size, net::FlowCallback& done),
            (self, src, dst, size, done))
TRACE_ENTRY(kBrokerSubmit, void, _ZN5grid36broker14ResourceBroker6submitENS0_7JobSpecENS_4gram7GramJobESt8functionIFvRKNS0_14BrokeredResultEEE,
            (void* self, broker::JobSpec& spec, gram::GramJob& job, broker::BrokeredCallback& done),
            (self, spec, job, done))
TRACE_ENTRY(kBrokerSubmitGang, void, _ZN5grid36broker14ResourceBroker11submit_gangENS0_8GangSpecESt6vectorINS_4gram7GramJobESaIS5_EESt8functionIFvmRKNS0_14BrokeredResultEEE,
            (void* self, broker::GangSpec& gang, std::vector<gram::GramJob>& jobs, broker::GangMemberCallback& done),
            (self, gang, jobs, done))
TRACE_ENTRY(kBrokerChoose, std::optional<std::string>, _ZN5grid36broker14ResourceBroker6chooseB5cxx11ERKNS0_7JobSpecENS_4TimeE,
            (void* self, const broker::JobSpec& spec, Time now), (self, spec, now))
TRACE_ENTRY(kPlannerPlan, std::optional<workflow::ConcreteDag>, _ZNK5grid38workflow14PegasusPlanner4planERKNS0_11AbstractDagERKNS0_13PlannerConfigERNS_4util3RngENS_4TimeE,
            (const void* self, const workflow::AbstractDag& dag, const workflow::PlannerConfig& cfg, util::Rng& rng, Time now),
            (self, dag, cfg, rng, now))
TRACE_ENTRY(kDagManRun, void, _ZN5grid38workflow6DagMan3runENS0_11ConcreteDagENS_2vo9VomsProxyESt8functionIFvRKNS0_11DagRunStatsEEES5_IFvRKNS0_10NodeResultEEE,
            (void* self, workflow::ConcreteDag& dag, vo::VomsProxy& proxy, workflow::DagMan::DoneFn& done, workflow::DagMan::NodeObserver& on_node),
            (self, dag, proxy, done, on_node))
TRACE_ENTRY(kLedgerAcquire, placement::AcquireResult, _ZN5grid39placement15PlacementLedger7acquireERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_5BytesES9_RKSt6vectorIS7_SaIS7_EENS_4TimeE,
            (void* self, const std::string& dest, Bytes size, const std::string& app, const Strings& lfns, Time now),
            (self, dest, size, app, lfns, now))
TRACE_ENTRY(kLedgerAcquireChain, placement::AcquireResult, _ZN5grid39placement15PlacementLedger7acquireERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS8_EENS_5BytesERKS8_SC_NS_4TimeE,
            (void* self, const Strings& chain, Bytes size, const std::string& app, const Strings& lfns, Time now),
            (self, chain, size, app, lfns, now))
TRACE_ENTRY(kRlsRegister, void, _ZN5grid33rls22ReplicaLocationService16register_replicaERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_NS0_7ReplicaENS_4TimeE,
            (void* self, const std::string& site, const std::string& lfn, rls::Replica& replica, Time now),
            (self, site, lfn, replica, now))
TRACE_ENTRY(kSrmReserve, std::optional<srm::ReservationId>, _ZN5grid33srm22StorageResourceManager7reserveERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_5BytesENS0_9SpaceTypeENS_4TimeESC_,
            (void* self, const std::string& vo, Bytes size, srm::SpaceType type, Time now, Time lifetime),
            (self, vo, size, type, now, lifetime))
TRACE_ENTRY(kHealthReport, void, _ZN5grid36health17SiteHealthMonitor6reportERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_7ServiceEbNS_4TimeE,
            (void* self, const std::string& site, health::Service service, bool ok, Time now),
            (self, site, service, ok, now))
TRACE_ENTRY(kHealthReportBatch, void, _ZN5grid36health17SiteHealthMonitor12report_batchERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEbNS_4TimeESA_SA_SA_,
            (void* self, const std::string& site, bool ok, Time submitted, Time finished, Time walltime, Time now),
            (self, site, ok, submitted, finished, walltime, now))
// clang-format on
