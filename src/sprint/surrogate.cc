#include "sprint/surrogate.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hh"

namespace csprint {

const char *
fidelityTierName(FidelityTier tier)
{
    switch (tier) {
      case FidelityTier::CycleAccurate:
        return "cycle-accurate";
      case FidelityTier::Surrogate:
        return "surrogate";
      case FidelityTier::Auto:
        return "auto";
    }
    SPRINT_PANIC("unknown fidelity tier");
}

void
validateSurrogateParams(const SurrogateParams &p)
{
    if (p.tier == FidelityTier::CycleAccurate)
        return;
    if (p.min_calibration < 1)
        throw std::invalid_argument(
            "surrogate tier needs at least one calibration task");
    if (!(p.audit_period >= 1.0))
        throw std::invalid_argument(
            "audit period must be at least one dispatch");
    if (!(p.tolerance > 0.0))
        throw std::invalid_argument("audit tolerance must be positive");
    if (p.profile_samples < 1)
        throw std::invalid_argument(
            "heat profile needs at least one chunk");
}

void
SurrogateClassModel::observe(const SurrogateObservation &ob)
{
    ++n;
    const double dn = static_cast<double>(n);

    // Long-run Welford moments.
    const double ds = ob.service - service_mean;
    service_mean += ds / dn;
    service_m2 += ds * (ob.service - service_mean);
    const double de = ob.energy - energy_mean;
    energy_mean += de / dn;
    energy_m2 += de * (ob.energy - energy_mean);

    // Drift-following prediction means: exact average while young,
    // EWMA once enough samples exist to damp the noise.
    const double a = std::max(1.0 / dn, kSurrogateAlpha);
    ewma_service += a * (ob.service - ewma_service);
    ewma_energy += a * (ob.energy - ewma_energy);
    ewma_sprint_time += a * (ob.sprint_time - ewma_sprint_time);
    ewma_sprint_energy += a * (ob.sprint_energy - ewma_sprint_energy);
    ewma_heat_time += a * (ob.heat_time - ewma_heat_time);
    ewma_heat_energy += a * (ob.heat_energy - ewma_heat_energy);
    exhausted_ewma +=
        a * ((ob.sprint_exhausted ? 1.0 : 0.0) - exhausted_ewma);
    throttled_ewma +=
        a * ((ob.hardware_throttled ? 1.0 : 0.0) - throttled_ewma);

    service_p95.add(ob.service);
}

SurrogatePrediction
SurrogateClassModel::predict() const
{
    SPRINT_ASSERT(n >= 1, "prediction from an uncalibrated class");
    SurrogatePrediction p;
    p.service = std::max(ewma_service, 0.0);
    p.energy = std::max(ewma_energy, 0.0);
    // The heat envelope covers the hook-sampled quanta only, and the
    // sprint segment can never exceed it.
    p.heat_time = std::clamp(ewma_heat_time, 0.0, p.service);
    p.heat_energy = std::clamp(ewma_heat_energy, 0.0, p.energy);
    p.sprint_time = std::clamp(ewma_sprint_time, 0.0, p.heat_time);
    p.sprint_energy = std::clamp(ewma_sprint_energy, 0.0, p.heat_energy);
    p.service_p95 = service_p95.value();
    p.sprint_exhausted = exhausted_ewma >= 0.5;
    p.hardware_throttled = throttled_ewma >= 0.5;
    return p;
}

TaskSurrogate::Route
TaskSurrogate::route(std::uint32_t key, const SurrogateParams &params)
{
    SurrogateClassModel &m = classes_[key];
    if (m.demoted ||
        m.n < static_cast<std::uint64_t>(params.min_calibration))
        return Route::Exact;
    if (params.tier == FidelityTier::Auto) {
        // One draw per calibrated dispatch: audit with probability
        // 1/audit_period. Deterministic given the dispatch sequence.
        const double u = audit_rng_.uniform();
        if (u * params.audit_period < 1.0) {
            ++m.audits;
            ++audit_tasks_;
            return Route::Audit;
        }
    }
    ++m.surrogate_runs;
    ++surrogate_tasks_;
    return Route::Surrogate;
}

SurrogatePrediction
TaskSurrogate::predict(std::uint32_t key) const
{
    const auto it = classes_.find(key);
    SPRINT_ASSERT(it != classes_.end(),
                  "prediction for a class never observed");
    return it->second.predict();
}

void
TaskSurrogate::observeExact(std::uint32_t key,
                            const SurrogateObservation &ob)
{
    classes_[key].observe(ob);
}

namespace {

double
relativeError(double predicted, double actual)
{
    const double scale = std::max(std::abs(actual), 1e-300);
    return std::abs(predicted - actual) / scale;
}

} // namespace

void
TaskSurrogate::finishAudit(std::uint32_t key,
                           const SurrogatePrediction &pred,
                           const SurrogateObservation &truth,
                           const SurrogateParams &params)
{
    SurrogateClassModel &m = classes_.at(key);
    const double err =
        std::max(relativeError(pred.service, truth.service),
                 relativeError(pred.energy, truth.energy));
    m.worst_audit_error = std::max(m.worst_audit_error, err);
    if (err > params.tolerance && !m.demoted) {
        m.demoted = true;
        ++demotions_;
    }
}

} // namespace csprint
