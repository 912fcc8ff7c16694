/**
 * @file
 * Tests for the optimized thermal hot path: parity between the Heun
 * (CSR/RK2) integrator and the retained reference Euler, stored-energy
 * conservation under random power schedules, the applyHeat residual
 * fix, and stability-cache re-validation across reset()/topology
 * changes.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "thermal/network.hh"
#include "thermal/package.hh"
#include "thermal/validation.hh"

namespace csprint {
namespace {

// --- Integrator parity -------------------------------------------------

TEST(IntegratorParity, DefaultIntegratorIsHeun)
{
    ThermalNetwork net(25.0);
    EXPECT_EQ(net.integrator(), ThermalIntegrator::Heun);
    net.setIntegrator(ThermalIntegrator::ReferenceEuler);
    EXPECT_EQ(net.integrator(), ThermalIntegrator::ReferenceEuler);
}

TEST(IntegratorParity, HeunMatchesReferenceEulerOnMeltFreeze)
{
    // Full melt transient at 16 W, then a cooldown refreeze, on the
    // paper's phone package: the optimized path must track the
    // reference within 0.1 C everywhere, including both phase
    // transitions. Uses the same shared trace as report --check thermal.
    const MeltFreezeParity parity = runMeltFreezeParity(1500, 20000);
    EXPECT_LT(parity.max_temp_dev, 0.1);
    EXPECT_LT(parity.max_mf_dev, 0.01);
    // The trace must have gone through melt and refreeze.
    EXPECT_NEAR(parity.final_melt_fraction, 0.0, 1e-6);
}

TEST(IntegratorParity, HeunMatchesClosedFormExponential)
{
    // First-order RC against the closed form, at the coarse substeps
    // the Heun path takes: T(t) = P*R*(1 - exp(-t/RC)).
    ThermalNetwork net(0.0);
    const auto n = net.addNode("die", 2.0, 0.0);
    net.addResistorToAmbient(n, 5.0);
    net.setPower(n, 1.0);
    const double tau = 2.0 * 5.0;
    net.step(tau);
    EXPECT_NEAR(net.temperature(n), 5.0 * (1.0 - std::exp(-1.0)), 0.01);
    net.step(2.0 * tau);
    EXPECT_NEAR(net.temperature(n), 5.0 * (1.0 - std::exp(-3.0)), 0.01);
}

// --- Conservation properties ------------------------------------------

TEST(Conservation, RandomPowerScheduleOnIsolatedNetwork)
{
    // A five-node network with two PCM nodes and no ambient path:
    // stored energy must equal injected energy exactly, whatever the
    // power schedule does, including schedules that drive nodes
    // through partial melts and refreezes.
    Rng rng(1234);
    ThermalNetwork net(25.0);
    const ThermalNodeId a = net.addNode("a", 0.4, 25.0);
    const ThermalNodeId b = net.addNode("b", 1.2, 25.0);
    const ThermalNodeId c = net.addPcmNode("c", 0.3, 25.0, {4.0, 45.0});
    const ThermalNodeId d = net.addPcmNode("d", 0.2, 25.0, {2.0, 55.0});
    const ThermalNodeId e = net.addNode("e", 2.5, 25.0);
    net.addResistor(a, b, 1.5);
    net.addResistor(b, c, 0.8);
    net.addResistor(c, d, 2.0);
    net.addResistor(d, e, 1.0);
    net.addResistor(a, e, 3.0);

    Joules injected = 0.0;
    for (int it = 0; it < 200; ++it) {
        const Seconds dt = rng.uniform(0.01, 0.5);
        for (ThermalNodeId id : {a, b, c, d, e}) {
            // Bipolar powers so the PCM nodes melt and refreeze.
            const Watts p = rng.uniform(-6.0, 8.0);
            net.setPower(id, p);
            injected += p * dt;
        }
        net.step(dt);
    }
    EXPECT_NEAR(net.storedEnergy(), injected, 1e-8);
}

TEST(Conservation, ReferenceEulerSameProperty)
{
    Rng rng(99);
    ThermalNetwork net(20.0);
    const ThermalNodeId a = net.addNode("a", 0.5, 20.0);
    const ThermalNodeId b = net.addPcmNode("b", 0.25, 20.0, {3.0, 40.0});
    net.addResistor(a, b, 1.0);
    net.setIntegrator(ThermalIntegrator::ReferenceEuler);

    Joules injected = 0.0;
    for (int it = 0; it < 100; ++it) {
        const Seconds dt = rng.uniform(0.05, 0.4);
        const Watts pa = rng.uniform(-4.0, 6.0);
        const Watts pb = rng.uniform(-4.0, 6.0);
        net.setPower(a, pa);
        net.setPower(b, pb);
        injected += (pa + pb) * dt;
        net.step(dt);
    }
    EXPECT_NEAR(net.storedEnergy(), injected, 1e-8);
}

TEST(Conservation, ApplyHeatKeepsResidualAcrossFullTransition)
{
    // Regression for the applyHeat guard: a single application that
    // crosses sensible -> latent -> sensible in one go must deposit
    // every joule (the seed's 8-iteration guard could in principle
    // exit with heat still in hand; any residue now folds into
    // sensible heat).
    ThermalNetwork net(25.0);
    const ThermalNodeId n = net.addPcmNode("pcm", 0.01, 25.0,
                                           {0.5, 60.0});
    net.setPower(n, 500.0);
    net.step(0.01); // 5 J >> 0.35 J sensible + 0.5 J latent
    EXPECT_NEAR(net.storedEnergy(), 5.0, 1e-9);
    EXPECT_DOUBLE_EQ(net.meltFraction(n), 1.0);
    EXPECT_GT(net.temperature(n), 60.0);

    // And symmetrically on extraction.
    net.setPower(n, -500.0);
    net.step(0.01);
    EXPECT_NEAR(net.storedEnergy(), 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(net.meltFraction(n), 0.0);
}

// --- Cache re-validation ----------------------------------------------

TEST(StabilityCache, ResetMatchesFreshNetwork)
{
    // A network reused after reset() must behave bit-identically to a
    // freshly built one (stale stability bounds or scratch state would
    // show up as trace divergence).
    MobilePackageModel used(MobilePackageParams::phonePcm());
    used.setDiePower(16.0);
    for (int i = 0; i < 800; ++i)
        used.step(1e-3);
    used.reset();

    MobilePackageModel fresh(MobilePackageParams::phonePcm());
    used.setDiePower(12.0);
    fresh.setDiePower(12.0);
    for (int i = 0; i < 500; ++i) {
        used.step(1e-3);
        fresh.step(1e-3);
        ASSERT_DOUBLE_EQ(used.junctionTemp(), fresh.junctionTemp());
        ASSERT_DOUBLE_EQ(used.meltFraction(), fresh.meltFraction());
    }
}

TEST(StabilityCache, TopologyChangesInvalidateBound)
{
    ThermalNetwork net(25.0);
    const ThermalNodeId a = net.addNode("a", 1.0, 25.0);
    net.addResistorToAmbient(a, 2.0);
    EXPECT_NEAR(net.maxStableStep(), 2.0, 1e-12);

    // A second resistor tightens the bound; the cache must notice.
    net.addResistorToAmbient(a, 2.0);
    EXPECT_NEAR(net.maxStableStep(), 1.0, 1e-12);

    // A new, stiffer node tightens it further.
    const ThermalNodeId b = net.addNode("b", 0.01, 25.0);
    net.addResistor(a, b, 0.5);
    EXPECT_NEAR(net.maxStableStep(), 0.005, 1e-12);

    // reset() clears state but the bound still reflects the topology.
    net.step(0.5);
    net.reset();
    EXPECT_NEAR(net.maxStableStep(), 0.005, 1e-12);
    EXPECT_DOUBLE_EQ(net.temperature(b), 25.0);
}

TEST(StabilityCache, PcmNodeAdditionInvalidates)
{
    ThermalNetwork net(25.0);
    const ThermalNodeId a = net.addNode("a", 1.0, 25.0);
    net.addResistorToAmbient(a, 1.0);
    EXPECT_NEAR(net.maxStableStep(), 1.0, 1e-12);
    const ThermalNodeId p =
        net.addPcmNode("p", 0.1, 25.0, {5.0, 60.0});
    net.addResistor(a, p, 0.25);
    // a: g = 1 + 4 -> 0.2; p: g = 4 -> 0.025.
    EXPECT_NEAR(net.maxStableStep(), 0.025, 1e-12);
}

} // namespace
} // namespace csprint
