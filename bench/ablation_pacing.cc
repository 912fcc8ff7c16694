/**
 * @file
 * Ablation (paper Section 3): sprint-and-rest pacing. Prints budget
 * recovery versus rest time (the PCM refreeze), and the degradation
 * of a train of sprints re-triggered faster than the cooldown.
 *
 * Each rest-time and each request-period point owns its package
 * model, so both sweeps run concurrently through parallelMap.
 */

#include <functional>
#include <iostream>
#include <vector>

#include "common/parallel.hh"
#include "common/table.hh"
#include "sprint/pacing.hh"
#include "thermal/package.hh"

using namespace csprint;

int
main()
{
    std::cout << "Ablation: sprint pacing on the 150 mg PCM package "
                 "(16 W sprints)\n\n";

    MobilePackageModel ref(MobilePackageParams::phonePcm());
    std::cout << "sustainable duty cycle at 16 W: "
              << Table::formatNumber(
                     100.0 * sustainableDutyCycle(ref, 16.0), 1)
              << "% (TDP / sprint power)\n\n";

    // Budget recovery after a full sprint.
    const std::vector<double> rests = {0.5, 2.0, 5.0, 10.0, 20.0, 40.0};
    std::vector<std::function<Joules()>> rest_jobs;
    for (const double rest : rests) {
        rest_jobs.emplace_back([rest] {
            MobilePackageModel pkg(MobilePackageParams::phonePcm());
            pkg.setDiePower(16.0);
            for (int i = 0; i < 1100; ++i)
                pkg.step(1e-3);
            return budgetAfterRest(pkg, rest);
        });
    }
    const std::vector<Joules> budgets = parallelMap(rest_jobs);

    Table rec("sprint budget vs rest time after a ~1.1 s full sprint");
    rec.setHeader({"rest (s)", "budget (J)", "fraction of cold start"});
    MobilePackageModel cold(MobilePackageParams::phonePcm());
    const Joules full = cold.sprintEnergyBudget();
    for (std::size_t i = 0; i < rests.size(); ++i) {
        rec.startRow();
        rec.cell(rests[i], 1);
        rec.cell(budgets[i], 1);
        rec.cell(budgets[i] / full, 2);
    }
    rec.print(std::cout);

    std::cout << "\n";
    const std::vector<double> periods = {2.0, 5.0, 10.0, 30.0};
    std::vector<std::function<std::vector<SprintWindow>()>> train_jobs;
    for (const double period : periods) {
        train_jobs.emplace_back([period] {
            MobilePackageModel pkg(MobilePackageParams::phonePcm());
            return runSprintTrain(pkg, 5, 16.0, 1.0, period);
        });
    }
    const auto trains = parallelMap(train_jobs);

    Table train_table("train of 1 s sprint requests vs request period");
    train_table.setHeader({"period (s)", "sprint 1 (s)", "sprint 3 (s)",
                           "sprint 5 (s)", "budget at sprint 5"});
    for (std::size_t i = 0; i < periods.size(); ++i) {
        const auto &train = trains[i];
        train_table.startRow();
        train_table.cell(periods[i], 0);
        train_table.cell(train[0].duration, 2);
        train_table.cell(train[2].duration, 2);
        train_table.cell(train[4].duration, 2);
        train_table.cell(train[4].budget_fraction, 2);
    }
    train_table.print(std::cout);

    std::cout << "\npaper: once sprinting capacity is exhausted the "
                 "chip must cool before sprinting\nagain (~20 s for a "
                 "full 16 W sprint); sustained performance stays "
                 "bounded by TDP.\n";
    return 0;
}
