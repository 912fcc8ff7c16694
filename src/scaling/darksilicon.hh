/**
 * @file
 * Technology-scaling projections behind Figure 1 of the paper: power
 * density and dark-silicon fraction for a fixed-area chip across process
 * nodes 45 nm ... 6 nm, under three voltage/density scaling scenarios
 * (ITRS, Borkar, and ITRS density with Borkar's conservative Vdd scaling).
 *
 * The model is intentionally small: per generation, transistor density
 * rises faster than per-device capacitance falls, and supply voltage
 * barely scales, so switching power density density*cap*f*Vdd^2 grows.
 * The dark-silicon fraction is the share of the chip that must be kept
 * off to hold the 45 nm power envelope.
 */

#ifndef CSPRINT_SCALING_DARKSILICON_HH
#define CSPRINT_SCALING_DARKSILICON_HH

#include <string>
#include <vector>

namespace csprint {

/** Scaling-assumption scenario for the Figure 1 series. */
enum class ScalingScenario
{
    Itrs,          ///< ITRS roadmap density and Vdd scaling
    Borkar,        ///< Borkar's density/capacitance/Vdd assumptions
    ItrsBorkarVdd, ///< ITRS density with Borkar's conservative Vdd
};

/** Human-readable name of a scenario (matches the Fig. 1 legend). */
std::string scalingScenarioName(ScalingScenario scenario);

/** Projection for one process node. */
struct NodeProjection
{
    int node_nm;             ///< feature size [nm]
    double density;          ///< transistor density relative to 45 nm
    double capacitance;      ///< per-device capacitance relative to 45 nm
    double vdd;              ///< supply voltage relative to 45 nm
    double power_density;    ///< power density relative to 45 nm
    double dark_fraction;    ///< fraction of chip that must stay dark [0,1)
};

/** Per-generation scaling factors for one scenario. */
struct ScalingAssumptions
{
    double density_per_gen;      ///< density multiplier per generation
    double capacitance_per_gen;  ///< capacitance multiplier per generation
    double vdd_per_gen;          ///< Vdd multiplier per generation
    double frequency_per_gen;    ///< clock multiplier per generation
};

/** The assumptions this library uses for @p scenario. */
ScalingAssumptions scalingAssumptions(ScalingScenario scenario);

/** The process nodes plotted in Figure 1: 45, 32, 22, 16, 11, 8, 6 nm. */
const std::vector<int> &figure1Nodes();

/**
 * Project power density and dark-silicon fraction for a fixed-area,
 * fixed-power-budget chip across @p nodes under @p scenario.
 *
 * The first node is the reference: density = power density = 1 and
 * dark fraction = 0 by construction.
 */
std::vector<NodeProjection>
projectDarkSilicon(ScalingScenario scenario,
                   const std::vector<int> &nodes = figure1Nodes());

} // namespace csprint

#endif // CSPRINT_SCALING_DARKSILICON_HH
