/**
 * @file
 * The calibrated surrogate fidelity tier: online-learned per-class
 * task models that stand in for full cycle-accurate machine pumps on
 * the bulk of a fleet-scale scenario run.
 *
 * A TaskSurrogate keeps one SurrogateClassModel per (kernel, input
 * size, sprint-mode) class. Every cycle-accurate pump the scenario
 * engine executes under a non-CycleAccurate tier feeds the class's
 * calibration: streaming mean/variance (Welford), drift-following
 * exponentially-weighted means used for prediction, and a P² p95 of
 * the service time as the confidence signal. A calibrated class
 * predicts service time, dynamic energy, and a piecewise-constant
 * heat profile (an above-TDP sprint segment followed by a sustainable
 * tail) good enough to drive ThermalNetwork::step analytically —
 * surrogate-executed tasks bypass prepareMachine/pumpTaskSlice
 * entirely.
 *
 * Admissibility contract (PERF.md, "Surrogate fidelity tier"): a
 * class may run surrogate only after min_calibration exact
 * observations and while it has never been demoted. Under
 * FidelityTier::Auto a seeded RNG cursor samples an exact "audit"
 * task every audit_period dispatches on average; the audit's
 * prediction (taken before the pump) is compared against the pump's
 * ground truth, and a relative error above the tolerance demotes the
 * class back to cycle-accurate permanently (it keeps calibrating, but
 * never predicts again). The cursor and every model are value
 * state serialized through checkpoint.cc, so sharded replay of an
 * Auto-tier run is bit-exact.
 */

#ifndef CSPRINT_SPRINT_SURROGATE_HH
#define CSPRINT_SPRINT_SURROGATE_HH

#include <cstdint>
#include <map>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "workloads/workload.hh"

namespace csprint {

/** Execution fidelity of the scenario engine's task pumps. */
enum class FidelityTier
{
    CycleAccurate, ///< every task pumps the full machine (default)
    Surrogate,     ///< calibrated classes predict, never audit
    Auto,          ///< calibrate, predict, sample exact audits
};

/** Stable lowercase name for reports and bench JSON keys. */
const char *fidelityTierName(FidelityTier tier);

/** ScenarioConfig knobs of the surrogate tier (all digest-covered). */
struct SurrogateParams
{
    FidelityTier tier = FidelityTier::CycleAccurate;

    /** Exact observations required before a class may predict. */
    int min_calibration = 8;

    /**
     * Auto tier: mean dispatches between exact audit tasks of a
     * calibrated class (a seeded per-dispatch draw, so shard replay
     * is bit-exact). Must be >= 1; 1 audits every dispatch.
     */
    double audit_period = 64.0;

    /**
     * Auto tier: relative error (service or energy, whichever is
     * worse) an audit may show before the class is demoted back to
     * cycle-accurate execution.
     */
    double tolerance = 0.25;

    /**
     * Thermal chunks the predicted heat profile is integrated in
     * (per task, split across the sprint and tail segments). More
     * chunks give finer traces and peak-tracking at surrogate cost.
     */
    int profile_samples = 4;
};

/**
 * Throw std::invalid_argument unless @p p is a valid surrogate
 * configuration.
 */
void validateSurrogateParams(const SurrogateParams &p);

/** Ground truth extracted from one cycle-accurate task pump. */
struct SurrogateObservation
{
    Seconds service = 0.0; ///< machine time (activation ramp excluded)
    Joules energy = 0.0;   ///< dynamic energy of the pump
    Seconds sprint_time = 0.0;  ///< above-TDP time
    Joules sprint_energy = 0.0; ///< above-TDP energy
    /**
     * The heat envelope the pump stepped into the package (whole
     * sample quanta only — the final partial quantum of a run never
     * fires the machine's sample hook, so its time and energy stay
     * out of the thermal model; RunResult::sampled_time/_energy).
     */
    Seconds heat_time = 0.0;
    Joules heat_energy = 0.0;
    bool sprint_exhausted = false;
    bool hardware_throttled = false;
};

/** What a calibrated class predicts for its next task. */
struct SurrogatePrediction
{
    Seconds service = 0.0;
    Joules energy = 0.0;
    Seconds sprint_time = 0.0;
    Joules sprint_energy = 0.0;
    Seconds heat_time = 0.0;  ///< package-stepped time (<= service)
    Joules heat_energy = 0.0; ///< package-stepped energy (<= energy)
    Seconds service_p95 = 0.0; ///< P² confidence signal
    bool sprint_exhausted = false;
    bool hardware_throttled = false;
};

/**
 * Weight of the newest observation in the drift-following prediction
 * means (max(1/n, alpha), so early samples average exactly): large
 * enough to track the cold->warm service drift of a saturating train
 * within a few audits, small enough to damp per-task noise.
 */
constexpr double kSurrogateAlpha = 0.25;

/**
 * Calibration state of one (kernel, size, sprinted) class. Plain
 * value state: checkpoints by field copy through CheckpointIO.
 */
struct SurrogateClassModel
{
    std::uint64_t n = 0; ///< exact observations folded in

    // Long-run streaming moments (Welford), for confidence/reporting.
    double service_mean = 0.0;
    double service_m2 = 0.0;
    double energy_mean = 0.0;
    double energy_m2 = 0.0;

    // Drift-following prediction means (kSurrogateAlpha EWMA).
    double ewma_service = 0.0;
    double ewma_energy = 0.0;
    double ewma_sprint_time = 0.0;
    double ewma_sprint_energy = 0.0;
    double ewma_heat_time = 0.0;
    double ewma_heat_energy = 0.0;
    double exhausted_ewma = 0.0; ///< EWMA of the 0/1 exhausted flag
    double throttled_ewma = 0.0; ///< EWMA of the 0/1 throttled flag

    P2Quantile service_p95{0.95};

    std::uint64_t surrogate_runs = 0; ///< tasks this class predicted
    std::uint64_t audits = 0;         ///< exact audits sampled
    bool demoted = false;             ///< audit error exceeded tolerance
    double worst_audit_error = 0.0;   ///< largest relative audit error

    /** Fold one exact observation into the calibration. */
    void observe(const SurrogateObservation &ob);

    /** Predict the next task of this class (requires n >= 1). */
    SurrogatePrediction predict() const;
};

/**
 * The per-scenario surrogate: every class model plus the audit RNG
 * cursor and the run-wide tallies the ScenarioResult reports. Value
 * semantics; lives inside ScenarioCheckpoint and serializes through
 * checkpoint.cc.
 */
class TaskSurrogate
{
  public:
    /** What the engine should do with a freshly dispatched task. */
    enum class Route
    {
        Exact,     ///< pump the machine (uncalibrated or demoted)
        Audit,     ///< pump the machine AND grade the prediction
        Surrogate, ///< skip the machine, execute the prediction
    };

    TaskSurrogate() = default;

    /** Class key of a (kernel, size, sprint-granted) task. */
    static std::uint32_t
    classKey(KernelId kernel, InputSize size, bool sprinted)
    {
        return (static_cast<std::uint32_t>(kernel) << 8) |
               (static_cast<std::uint32_t>(size) << 1) |
               (sprinted ? 1u : 0u);
    }

    /** Re-arm the audit cursor from the scenario seed (beginScenario). */
    void
    seed(std::uint64_t scenario_seed)
    {
        audit_rng_ = Rng(scenario_seed ^ 0x5352474154454155ULL);
    }

    /**
     * Route one dispatch of class @p key. Draws the audit cursor only
     * for calibrated Auto-tier candidates, so the RNG stream is a
     * pure function of the dispatch sequence (shard-replay exact).
     */
    Route route(std::uint32_t key, const SurrogateParams &params);

    /** The calibrated prediction for class @p key. */
    SurrogatePrediction predict(std::uint32_t key) const;

    /** Calibrate class @p key with one exact pump's ground truth. */
    void observeExact(std::uint32_t key,
                      const SurrogateObservation &ob);

    /**
     * Grade an audit: compare the pre-pump @p pred against the pump's
     * @p truth; demote the class when the worse of the service/energy
     * relative errors exceeds the tolerance.
     */
    void finishAudit(std::uint32_t key, const SurrogatePrediction &pred,
                     const SurrogateObservation &truth,
                     const SurrogateParams &params);

    /** Tasks executed by prediction instead of a machine pump. */
    std::uint64_t surrogateTasks() const { return surrogate_tasks_; }

    /** Exact audit tasks sampled by the Auto tier. */
    std::uint64_t auditTasks() const { return audit_tasks_; }

    /** Classes demoted back to cycle-accurate execution. */
    int demotions() const { return demotions_; }

    /** The calibrated class models (reporting). */
    const std::map<std::uint32_t, SurrogateClassModel> &
    classes() const
    {
        return classes_;
    }

  private:
    friend struct CheckpointIO;

    std::map<std::uint32_t, SurrogateClassModel> classes_;
    Rng audit_rng_{0x5352474154454155ULL}; ///< re-seeded per scenario
    std::uint64_t surrogate_tasks_ = 0;
    std::uint64_t audit_tasks_ = 0;
    int demotions_ = 0;
};

} // namespace csprint

#endif // CSPRINT_SPRINT_SURROGATE_HH
