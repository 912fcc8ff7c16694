#include "sprint/policy.hh"

#include <algorithm>

#include "common/blob.hh"
#include "common/logging.hh"
#include "sprint/pacing.hh"

namespace csprint {

const char *
sprintPolicyKindName(SprintPolicyKind kind)
{
    switch (kind) {
      case SprintPolicyKind::GreedyActivity:
        return "greedy";
      case SprintPolicyKind::Thermometer:
        return "thermometer";
      case SprintPolicyKind::DutyCycle:
        return "duty-cycle";
      case SprintPolicyKind::AdaptiveHeadroom:
        return "adaptive-headroom";
      case SprintPolicyKind::NeverSprint:
        return "never";
      case SprintPolicyKind::Qos:
        return "qos";
      case SprintPolicyKind::ModelPredictive:
        return "model-predictive";
    }
    SPRINT_PANIC("unknown policy kind");
}

const std::vector<SprintPolicyKind> &
allSprintPolicyKinds()
{
    static const std::vector<SprintPolicyKind> kinds = {
        SprintPolicyKind::GreedyActivity,
        SprintPolicyKind::Thermometer,
        SprintPolicyKind::DutyCycle,
        SprintPolicyKind::AdaptiveHeadroom,
        SprintPolicyKind::NeverSprint,
        SprintPolicyKind::Qos,
        SprintPolicyKind::ModelPredictive,
    };
    return kinds;
}

namespace {

/** Governor config with the estimate mode pinned by the policy. */
GovernorConfig
withActivityEstimate(GovernorConfig cfg, bool activity)
{
    cfg.use_activity_estimate = activity;
    return cfg;
}

} // namespace

SprintDecision
GovernorBackedPolicy::onSample(MobilePackageModel &package, Seconds dt,
                               Joules energy)
{
    (void)package; // the governor holds the package reference
    SPRINT_ASSERT(governor.has_value(),
                  "onSample before beginTask armed the governor");
    switch (governor->onSample(dt, energy)) {
      case GovernorAction::Continue:
        return SprintDecision::Continue;
      case GovernorAction::TerminateSprint:
        return SprintDecision::StopSprint;
      case GovernorAction::Throttle:
        return SprintDecision::Throttle;
    }
    SPRINT_PANIC("unknown governor action");
}

GreedyActivityPolicy::GreedyActivityPolicy(GovernorConfig cfg)
    : GovernorBackedPolicy(withActivityEstimate(cfg, true))
{
}

ThermometerPolicy::ThermometerPolicy(GovernorConfig cfg)
    : GovernorBackedPolicy(withActivityEstimate(cfg, false))
{
}

DutyCyclePolicy::DutyCyclePolicy(Seconds pacing_period, GovernorConfig cfg)
    : GovernorBackedPolicy(withActivityEstimate(cfg, true)),
      period(pacing_period)
{
    SPRINT_ASSERT(period > 0.0, "duty-cycle policy needs a period");
}

void
DutyCyclePolicy::beginTask(MobilePackageModel &package)
{
    GovernorBackedPolicy::beginTask(package);
    // The package can shed sustainable-TDP joules per second; one
    // pacing period's worth is the above-envelope energy this task may
    // spend without stealing from the next arrival (the
    // energy-conservation argument behind sustainableDutyCycle()).
    pacing_allowance = governor->sustainablePower() * period;
    above_energy = 0.0;
    above_time = 0.0;
    duty_bound = 1.0;
    paced_out = false;
}

SprintDecision
DutyCyclePolicy::onSample(MobilePackageModel &package, Seconds dt,
                          Joules energy)
{
    const SprintDecision safety =
        GovernorBackedPolicy::onSample(package, dt, energy);

    const Watts power = energy / dt;
    if (power > governor->sustainablePower()) {
        above_energy += energy;
        above_time += dt;
        duty_bound = sustainableDutyCycle(package, above_energy /
                                                      above_time);
    }

    // The governor's thermal-safety decisions always win.
    if (safety != SprintDecision::Continue)
        return safety;
    if (!paced_out && above_energy >= pacing_allowance) {
        paced_out = true;
        return SprintDecision::StopSprint;
    }
    return SprintDecision::Continue;
}

AdaptiveHeadroomPolicy::AdaptiveHeadroomPolicy(double fraction,
                                               GovernorConfig cfg)
    : GovernorBackedPolicy(withActivityEstimate(cfg, true)),
      resume_fraction(fraction)
{
    SPRINT_ASSERT(resume_fraction > 0.0 && resume_fraction <= 1.0,
                  "resume fraction must be in (0, 1]");
}

bool
AdaptiveHeadroomPolicy::wantSprint(const MobilePackageModel &package)
{
    if (cold_budget < 0.0)
        cold_budget =
            MobilePackageModel(package.params()).sprintEnergyBudget();
    return package.sprintEnergyBudget() >=
           resume_fraction * cold_budget;
}

std::vector<double>
AdaptiveHeadroomPolicy::saveState() const
{
    return {cold_budget};
}

void
AdaptiveHeadroomPolicy::restoreState(const std::vector<double> &state)
{
    if (state.size() != 1)
        corrupt("adaptive-headroom state is one double");
    cold_budget = state[0];
}

namespace {

/**
 * Shared ready-queue order of the preemptive policies: highest
 * priority first, earliest absolute deadline within a class, earliest
 * arrival as the stable tie-break (ready is in arrival order, so the
 * strict comparisons keep the first of equals).
 */
std::size_t
pickUrgent(const std::vector<TaskSnapshot> &ready)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
        const TaskSnapshot &a = ready[i];
        const TaskSnapshot &b = ready[best];
        if (a.priority != b.priority) {
            if (a.priority > b.priority)
                best = i;
        } else if (a.deadline != b.deadline) {
            if (a.deadline < b.deadline)
                best = i;
        } else if (a.arrival < b.arrival) {
            best = i;
        }
    }
    return best;
}

/** Tardiness of finishing at @p finish against @p deadline. */
Seconds
tardiness(Seconds finish, Seconds deadline)
{
    return deadline == kNoDeadline || finish <= deadline
               ? 0.0
               : finish - deadline;
}

} // namespace

QosPolicy::QosPolicy(double slack_factor, Seconds service_prior,
                     GovernorConfig cfg)
    : GovernorBackedPolicy(withActivityEstimate(cfg, true)),
      slack(slack_factor), est(service_prior)
{
    SPRINT_ASSERT(slack > 0.0, "qos slack factor must be positive");
}

ArrivalDecision
QosPolicy::onArrival(const MobilePackageModel &package, Seconds now,
                     const TaskSnapshot &running,
                     const TaskSnapshot &incoming)
{
    (void)package;
    // Only a strictly more important newcomer may evict work, and only
    // when it actually has a deadline to protect.
    if (incoming.priority <= running.priority ||
        incoming.deadline == kNoDeadline)
        return ArrivalDecision::Queue;
    const Seconds wait =
        est.remaining(running) + est.estimateIf(incoming, true);
    return now + slack * wait > incoming.deadline
               ? ArrivalDecision::Preempt
               : ArrivalDecision::Queue;
}

std::size_t
QosPolicy::pickNext(const MobilePackageModel &package, Seconds now,
                    const std::vector<TaskSnapshot> &ready)
{
    (void)package;
    (void)now;
    return pickUrgent(ready);
}

void
QosPolicy::onTaskComplete(const TaskSnapshot &task, Seconds service)
{
    est.add(task, service);
}

std::vector<double>
QosPolicy::saveState() const
{
    return est.save();
}

void
QosPolicy::restoreState(const std::vector<double> &state)
{
    if (state.size() != ServiceEstimator::kStateSize)
        corrupt("qos state is the estimator's cells");
    est.restore(state.data());
}

ModelPredictivePolicy::ModelPredictivePolicy(double fraction,
                                             Seconds service_prior,
                                             GovernorConfig cfg)
    : GovernorBackedPolicy(withActivityEstimate(cfg, true)),
      grant_fraction(fraction), est(service_prior)
{
    SPRINT_ASSERT(grant_fraction > 0.0 && grant_fraction <= 1.0,
                  "grant fraction must be in (0, 1]");
}

Seconds
ModelPredictivePolicy::regrantDelay(
    const MobilePackageModel &package) const
{
    if (cold_budget < 0.0)
        cold_budget =
            MobilePackageModel(package.params()).sprintEnergyBudget();
    if (package.sprintEnergyBudget() >= grant_fraction * cold_budget)
        return 0.0;
    // Section 4.5's cooldown approximation seeds the search horizon
    // (how long a full-budget sprint would take to pay back); the
    // stepped budget-recovery search on a scratch copy of the live
    // state refines it without touching the real package.
    const Watts sprint_power = package.maxSprintPower();
    const Seconds sprint_est =
        cold_budget / std::max(sprint_power -
                                   package.sustainableTdp(),
                               1e-12);
    const Seconds horizon =
        4.0 * package.approxCooldown(sprint_est, sprint_power);
    MobilePackageModel scratch(package.params());
    scratch.restoreState(package.saveState());
    return timeToBudgetFraction(scratch, grant_fraction, horizon,
                                horizon / 64.0);
}

ArrivalDecision
ModelPredictivePolicy::onArrival(const MobilePackageModel &package,
                                 Seconds now,
                                 const TaskSnapshot &running,
                                 const TaskSnapshot &incoming)
{
    // Nothing learned yet: no forecast to act on, queue conservatively.
    if (est.estimateIf(incoming, true) <= 0.0)
        return ArrivalDecision::Queue;

    const Seconds rem_run = est.remaining(running);
    const Seconds regrant = regrantDelay(package);

    // Order A — queue: the runner finishes first, the newcomer then
    // runs with whatever sprint capacity has recovered by that time.
    const Seconds fin_run_q = now + rem_run;
    const Seconds fin_inc_q =
        fin_run_q + est.estimateIf(incoming, regrant <= rem_run);
    // Order B — preempt: the newcomer runs now (sprinting only if the
    // budget allows it today), the runner's remainder follows.
    const Seconds fin_inc_p =
        now + est.estimateIf(incoming, regrant <= 0.0);
    const Seconds fin_run_p = fin_inc_p + rem_run;

    const int met_q =
        (fin_run_q <= running.deadline ? 1 : 0) +
        (fin_inc_q <= incoming.deadline ? 1 : 0);
    const int met_p =
        (fin_run_p <= running.deadline ? 1 : 0) +
        (fin_inc_p <= incoming.deadline ? 1 : 0);
    if (met_p != met_q) {
        return met_p > met_q ? ArrivalDecision::Preempt
                             : ArrivalDecision::Queue;
    }
    const Seconds tard_q = tardiness(fin_run_q, running.deadline) +
                           tardiness(fin_inc_q, incoming.deadline);
    const Seconds tard_p = tardiness(fin_run_p, running.deadline) +
                           tardiness(fin_inc_p, incoming.deadline);
    return tard_p < tard_q ? ArrivalDecision::Preempt
                           : ArrivalDecision::Queue;
}

std::size_t
ModelPredictivePolicy::pickNext(const MobilePackageModel &package,
                                Seconds now,
                                const std::vector<TaskSnapshot> &ready)
{
    (void)package;
    (void)now;
    return pickUrgent(ready);
}

void
ModelPredictivePolicy::onTaskComplete(const TaskSnapshot &task,
                                      Seconds service)
{
    est.add(task, service);
}

std::vector<double>
ModelPredictivePolicy::saveState() const
{
    std::vector<double> state = est.save();
    state.push_back(cold_budget);
    return state;
}

void
ModelPredictivePolicy::restoreState(const std::vector<double> &state)
{
    if (state.size() != ServiceEstimator::kStateSize + 1)
        corrupt("model-predictive state is the estimator plus the cold "
                "budget");
    est.restore(state.data());
    cold_budget = state[ServiceEstimator::kStateSize];
}

std::unique_ptr<SprintPolicy>
makeSprintPolicy(const SprintPolicyParams &params)
{
    switch (params.kind) {
      case SprintPolicyKind::GreedyActivity:
        return std::make_unique<GreedyActivityPolicy>(params.governor);
      case SprintPolicyKind::Thermometer:
        return std::make_unique<ThermometerPolicy>(params.governor);
      case SprintPolicyKind::DutyCycle:
        return std::make_unique<DutyCyclePolicy>(params.pacing_period,
                                                 params.governor);
      case SprintPolicyKind::AdaptiveHeadroom:
        return std::make_unique<AdaptiveHeadroomPolicy>(
            params.resume_fraction, params.governor);
      case SprintPolicyKind::NeverSprint:
        return std::make_unique<NeverSprintPolicy>();
      case SprintPolicyKind::Qos:
        return std::make_unique<QosPolicy>(params.qos_slack,
                                           params.service_prior,
                                           params.governor);
      case SprintPolicyKind::ModelPredictive:
        return std::make_unique<ModelPredictivePolicy>(
            params.resume_fraction, params.service_prior,
            params.governor);
    }
    SPRINT_PANIC("unknown policy kind");
}

} // namespace csprint
