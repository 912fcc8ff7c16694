/**
 * @file
 * Tests for the quiescent thermal super-stepper
 * (ThermalNetwork::advanceQuiescent) and the thermal state
 * snapshot/restore used by scenario checkpoints: parity against plain
 * Heun stepping through a full melt -> refreeze cooldown (including a
 * gap that crosses the latent plateau mid-stream), interleaving with
 * step(), constant non-zero power, no-PCM packages, and bit-exact
 * resume from a ThermalNetworkState.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "sprint/simulation.hh"
#include "thermal/package.hh"
#include "thermal/validation.hh"

namespace csprint {
namespace {

/** Heat a package at @p power for @p duration, then cut the power. */
void
heatThenIdle(MobilePackageModel &pkg, Watts power, Seconds duration)
{
    pkg.reset();
    pkg.setDiePower(power);
    pkg.step(duration);
    pkg.setDiePower(0.0);
}

TEST(Quiescent, FullMeltRefreezeCooldownTracksHeun)
{
    // The long-horizon idle path of the scenario engine: a fully
    // molten scaled package cooling through refreeze to ambient
    // (the canonical cooldown also measured by BM_IdleCooling and
    // report --check scale). The quiescent path must track
    // plain Heun stepping at every sampled chunk boundary, within a
    // few multiples of the tolerance.
    const MobilePackageParams params =
        SprintConfig::scaledPackage(0.15, 7e-4);
    {
        MobilePackageModel melted(params);
        meltThenIdle(melted);
        ASSERT_DOUBLE_EQ(melted.meltFraction(), 1.0);
    }
    const QuiescentCooldownParity parity =
        runQuiescentCooldownParity(params);
    EXPECT_LT(parity.max_temp_dev, 0.05);
    EXPECT_LT(parity.max_mf_dev, 0.01);
    // Fully refrozen and settled at ambient.
    EXPECT_DOUBLE_EQ(parity.final_melt, 0.0);
    EXPECT_NEAR(parity.final_junction, params.ambient, 1e-3);
}

TEST(Quiescent, PlateauCrossingGapInOneCall)
{
    // One advanceQuiescent() call spanning the entire refreeze
    // plateau plus the sensible tail: the plateau-corner fallback and
    // the super-steps must compose into the same endpoint Heun
    // reaches.
    const MobilePackageParams params =
        SprintConfig::scaledPackage(0.15, 7e-4);
    MobilePackageModel heun(params), fast(params);
    heatThenIdle(heun, 14.0, 1.5e-3);
    heatThenIdle(fast, 14.0, 1.5e-3);
    const double melt0 = heun.meltFraction();
    ASSERT_GT(melt0, 0.2);  // partially molten: starts on the plateau

    const Seconds gap = 0.5;
    heun.step(gap);
    fast.stepQuiescent(gap, 0.01);
    EXPECT_NEAR(fast.junctionTemp(), heun.junctionTemp(), 0.05);
    EXPECT_DOUBLE_EQ(fast.meltFraction(), 0.0);
    EXPECT_DOUBLE_EQ(heun.meltFraction(), 0.0);
}

TEST(Quiescent, ConstantNonZeroPowerHoldsSteadyState)
{
    // "Quiescent" means constant power, not necessarily zero: a
    // package held at a sub-TDP load must converge to the same steady
    // state the exact path reaches.
    const MobilePackageParams params = MobilePackageParams::phonePcm();
    MobilePackageModel heun(params), fast(params);
    heun.reset();
    fast.reset();
    const Watts load = 0.5;  // well below sustainable TDP
    heun.setDiePower(load);
    fast.setDiePower(load);
    heun.step(500.0);
    fast.stepQuiescent(500.0, 0.01);
    EXPECT_NEAR(fast.junctionTemp(), heun.junctionTemp(), 0.05);
    EXPECT_DOUBLE_EQ(fast.meltFraction(), heun.meltFraction());
}

TEST(Quiescent, NoPcmPackage)
{
    const MobilePackageParams params =
        MobilePackageParams::phoneNoPcm();
    MobilePackageModel heun(params), fast(params);
    heatThenIdle(heun, 3.0, 10.0);
    heatThenIdle(fast, 3.0, 10.0);
    const Seconds gap = 200.0;
    const int samples = 32;
    double max_dev = 0.0;
    for (int i = 0; i < samples; ++i) {
        heun.step(gap / samples);
        fast.stepQuiescent(gap / samples, 0.01);
        max_dev = std::max(max_dev, std::abs(heun.junctionTemp() -
                                             fast.junctionTemp()));
    }
    EXPECT_LT(max_dev, 0.05);
}

TEST(Quiescent, InterleavesWithExactStepping)
{
    // step() and stepQuiescent() share the same state; alternating
    // them must stay near the pure-exact trajectory.
    const MobilePackageParams params =
        SprintConfig::scaledPackage(0.015, 7e-4);
    MobilePackageModel exact(params), mixed(params);
    heatThenIdle(exact, 10.0, 1e-3);
    heatThenIdle(mixed, 10.0, 1e-3);
    for (int i = 0; i < 8; ++i) {
        exact.step(5e-3);
        exact.step(5e-3);
        mixed.step(5e-3);
        mixed.stepQuiescent(5e-3, 0.01);
    }
    EXPECT_NEAR(mixed.junctionTemp(), exact.junctionTemp(), 0.05);
}

TEST(Quiescent, ZeroDurationIsANoOp)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    heatThenIdle(pkg, 10.0, 1.0);
    const Celsius before = pkg.junctionTemp();
    pkg.stepQuiescent(0.0, 0.01);
    EXPECT_DOUBLE_EQ(pkg.junctionTemp(), before);
}

TEST(ThermalSnapshot, RestoreResumesBitExactly)
{
    // The scenario-checkpoint contract: a package rebuilt from params
    // and restored from a snapshot must continue bit-identically to
    // the original, through both integration paths.
    const MobilePackageParams params =
        SprintConfig::scaledPackage(0.15, 7e-4);
    MobilePackageModel a(params);
    heatThenIdle(a, 14.0, 1.2e-3);
    a.step(1e-3);

    const ThermalNetworkState snap = a.saveState();
    MobilePackageModel b(params);
    b.restoreState(snap);
    EXPECT_DOUBLE_EQ(b.junctionTemp(), a.junctionTemp());
    EXPECT_DOUBLE_EQ(b.meltFraction(), a.meltFraction());

    for (int i = 0; i < 5; ++i) {
        a.step(2e-3);
        b.step(2e-3);
        ASSERT_DOUBLE_EQ(b.junctionTemp(), a.junctionTemp());
        ASSERT_DOUBLE_EQ(b.meltFraction(), a.meltFraction());
    }
    a.stepQuiescent(0.1, 0.01);
    b.stepQuiescent(0.1, 0.01);
    EXPECT_DOUBLE_EQ(b.junctionTemp(), a.junctionTemp());
    EXPECT_DOUBLE_EQ(b.meltFraction(), a.meltFraction());
}

TEST(ThermalSnapshot, SnapshotCarriesInjectedPower)
{
    MobilePackageModel a(MobilePackageParams::phonePcm());
    a.reset();
    a.setDiePower(7.5);
    const ThermalNetworkState snap = a.saveState();
    MobilePackageModel b(MobilePackageParams::phonePcm());
    b.reset();
    b.restoreState(snap);
    EXPECT_DOUBLE_EQ(b.network().power(b.junction()), 7.5);
}

} // namespace
} // namespace csprint
