#include "schedulers/registry.hpp"

#include <stdexcept>

#include "schedulers/annealing.hpp"
#include "schedulers/cpa.hpp"
#include "schedulers/cpr.hpp"
#include "schedulers/data_parallel.hpp"
#include "schedulers/icaslb.hpp"
#include "schedulers/loc_mps.hpp"
#include "schedulers/task_parallel.hpp"
#include "schedulers/tsas.hpp"
#include "schedulers/twol.hpp"

namespace locmps {

SchedulerPtr make_scheduler(const std::string& name) {
  return make_scheduler(name, SchedulerOptions{});
}

namespace {

/// LoC-MPS options carrying the scheme-independent SchedulerOptions.
LocMPSOptions locmps_options(const SchedulerOptions& sopt) {
  LocMPSOptions opt;
  opt.locbs.perturb_task = sopt.perturb_task;
  opt.locbs.slack_factor = sopt.slack_factor;
  opt.incremental = sopt.incremental;
  if (sopt.plan_budget > 0) opt.max_locbs_calls = sopt.plan_budget;
  return opt;
}

}  // namespace

SchedulerPtr make_scheduler(const std::string& name,
                            const SchedulerOptions& sopt) {
  if (name == "loc-mps")
    return std::make_unique<LocMPSScheduler>(locmps_options(sopt));
  if (name == "loc-mps-nbf") {
    LocMPSOptions opt = locmps_options(sopt);
    opt.locbs.backfill = false;
    return std::make_unique<LocMPSScheduler>(opt);
  }
  if (name == "loc-mps-noloc") {
    LocMPSOptions opt = locmps_options(sopt);
    opt.locbs.locality = false;
    return std::make_unique<LocMPSScheduler>(opt);
  }
  if (name == "icaslb")
    return std::make_unique<ICASLBScheduler>(locmps_options(sopt));
  if (name == "cpr") return std::make_unique<CPRScheduler>();
  if (name == "cpa") return std::make_unique<CPAScheduler>();
  if (name == "tsas") return std::make_unique<TSASScheduler>();
  if (name == "sa") return std::make_unique<AnnealingScheduler>();
  if (name == "twol") return std::make_unique<TwoLScheduler>();
  if (name == "task") return std::make_unique<TaskParallelScheduler>();
  if (name == "data") return std::make_unique<DataParallelScheduler>();
  throw std::invalid_argument("make_scheduler: unknown scheme '" + name +
                              "'");
}

std::vector<std::string> paper_schemes() {
  return {"loc-mps", "icaslb", "cpr", "cpa", "task", "data"};
}

bool scheme_exploits_locality(const std::string& name) {
  // TwoL keeps block-cyclic groups aligned deterministically, so its
  // transfers realize the exact remote volumes; TSAS/CPR/CPA/iCASLB and
  // the locality-blind ablation do not orchestrate placement.
  return name == "loc-mps" || name == "loc-mps-nbf" || name == "task" ||
         name == "data" || name == "twol" || name == "sa";
}

}  // namespace locmps
