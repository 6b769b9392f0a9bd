#include "apps/appbase.h"

#include <cassert>

namespace grid3::apps {

AppBase::AppBase(core::Grid3& grid, std::string vo, std::string app_name,
                 std::string record_vo)
    : grid_{grid},
      vo_{std::move(vo)},
      app_name_{std::move(app_name)},
      record_vo_{record_vo.empty() ? vo_ : std::move(record_vo)},
      rng_{grid.rng().fork()},
      planner_{grid.igoc().top_giis(), *grid.rls(vo_)} {
  // Late binding when the fabric has a broker for this VO (attach it
  // before constructing the apps).
  planner_.set_broker(grid_.broker(vo_));
}

void AppBase::set_users(std::vector<vo::Certificate> admins,
                        std::vector<vo::Certificate> users) {
  admins_ = std::move(admins);
  users_ = std::move(users);
}

const vo::Certificate& AppBase::pick_submitter() {
  assert(!admins_.empty() || !users_.empty());
  const bool admin = users_.empty() || (!admins_.empty() && rng_.chance(0.9));
  auto& pool = admin ? admins_ : users_;
  return pool[rng_.index(pool.size())];
}

bool AppBase::launch(const workflow::AbstractDag& dag,
                     const workflow::PlannerConfig& cfg,
                     workflow::DagMan::DoneFn done, std::string app_label) {
  auto plan = planner_.plan(dag, cfg, rng_, sim().now());
  if (!plan.has_value()) return false;

  const vo::Certificate& submitter = pick_submitter();
  auto proxy = grid_.make_proxy(submitter, vo_, Time::hours(96));
  if (!proxy.has_value()) return false;
  const std::string user_dn = submitter.subject_dn;
  if (app_label.empty()) app_label = app_name_;

  grid_.dagman(vo_).run(
      std::move(*plan), *proxy, std::move(done),
      [this, user_dn, app_label](const workflow::NodeResult& r) {
        record_node(r, user_dn, app_label);
      });
  return true;
}

void AppBase::record_node(const workflow::NodeResult& result,
                          const std::string& user_dn,
                          const std::string& app_label) {
  auto& db = grid_.igoc().job_db();
  switch (result.type) {
    case workflow::NodeType::kCompute: {
      monitoring::JobRecord rec;
      rec.vo = record_vo_;
      rec.user_dn = user_dn;
      rec.site = result.site;
      rec.app = app_label;
      rec.submitted = result.submitted;
      rec.started = result.started;
      rec.finished = result.finished;
      rec.success = result.ok;
      rec.site_problem = result.site_problem;
      rec.failure = result.failure_class;
      rec.submit_id =
          record_vo_ + "/" + app_label + "/" + std::to_string(++jobs_);
      rec.gram_contact = result.gram_contact;
      db.insert(std::move(rec));
      // Jobmanager stage-in is data consumed by the execution site.
      if (result.ok && result.bytes > Bytes::zero() &&
          !result.source_site.empty()) {
        db.insert_transfer({result.source_site, result.site, record_vo_,
                            result.bytes, result.finished, false});
      }
      return;
    }
    case workflow::NodeType::kStageIn:
    case workflow::NodeType::kStageOut: {
      if (!result.ok || result.bytes == Bytes::zero()) return;
      db.insert_transfer({result.source_site, result.site, record_vo_,
                          result.bytes, result.finished, false});
      return;
    }
    case workflow::NodeType::kRegister:
      return;
  }
}

}  // namespace grid3::apps
