/**
 * @file
 * Tests for parallelMap: result ordering, the calling thread as a
 * worker, every job finishing before the first error is rethrown,
 * nested maps, and agreement between a mapped batch and the serial
 * experiment drivers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "sprint/experiment.hh"

namespace csprint {
namespace {

TEST(ParallelMap, PreservesSubmissionOrder)
{
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.emplace_back([i] {
            // Stagger completion so out-of-order finishes would show.
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 10));
            return i;
        });
    }
    const std::vector<int> out = parallelMap(jobs, 4);
    ASSERT_EQ(out.size(), jobs.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(ParallelMap, EmptyBatchReturnsNothing)
{
    EXPECT_TRUE(parallelMap(std::vector<std::function<int()>>()).empty());
}

TEST(ParallelMap, OneWorkerRunsOnTheCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::function<int()>> jobs(
        8, [caller] { return std::this_thread::get_id() == caller; });
    for (int same : parallelMap(jobs, 1))
        EXPECT_EQ(same, 1);
}

TEST(ParallelMap, ZeroWorkerRequestRunsEveryJob)
{
    std::atomic<int> done{0};
    std::vector<std::function<int()>> jobs(100, [&done] {
        return ++done;
    });
    parallelMap(jobs, 0);
    EXPECT_EQ(done.load(), 100);
}

TEST(ParallelMap, EveryJobFinishesBeforeTheFirstErrorIsRethrown)
{
    std::atomic<int> finished{0};
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 32; ++i) {
        jobs.emplace_back([i, &finished]() -> int {
            if (i == 5 || i == 20)
                throw std::runtime_error("job " + std::to_string(i));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            return ++finished;
        });
    }
    try {
        parallelMap(jobs, 4);
        FAIL() << "parallelMap swallowed the jobs' exceptions";
    } catch (const std::runtime_error &e) {
        // The earliest-submitted failure wins, whatever finished first.
        EXPECT_STREQ(e.what(), "job 5");
    }
    EXPECT_EQ(finished.load(), 30);
}

TEST(ParallelMap, NestedMapsComplete)
{
    std::vector<std::function<int()>> outer;
    for (int i = 0; i < 4; ++i) {
        outer.emplace_back([i] {
            std::vector<std::function<int()>> inner;
            for (int j = 0; j < 4; ++j)
                inner.emplace_back([i, j] { return 10 * i + j; });
            int sum = 0;
            for (int v : parallelMap(inner, 2))
                sum += v;
            return sum;
        });
    }
    const std::vector<int> sums = parallelMap(outer, 2);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sums[static_cast<std::size_t>(i)], 40 * i + 6);
}

TEST(ParallelMap, BatchAgreesWithSerialDrivers)
{
    // The mapped path must produce the same physics as calling the
    // drivers serially (each run owns its state, so this is pure
    // plumbing — but it is the property every figure rests on).
    ExperimentSpec spec;
    spec.kernel = KernelId::Sobel;
    spec.size = InputSize::A;
    spec.cores = 4;

    const RunResult serial_base = runBaselineExperiment(spec);
    const RunResult serial_sprint = runParallelSprintExperiment(spec);

    const std::vector<RunResult> batched =
        parallelMap(std::vector<std::function<RunResult()>>{
                        [&spec] { return runBaselineExperiment(spec); },
                        [&spec] {
                            return runParallelSprintExperiment(spec);
                        }},
                    2);

    ASSERT_EQ(batched.size(), 2u);
    EXPECT_DOUBLE_EQ(batched[0].task_time, serial_base.task_time);
    EXPECT_DOUBLE_EQ(batched[0].dynamic_energy,
                     serial_base.dynamic_energy);
    EXPECT_DOUBLE_EQ(batched[1].task_time, serial_sprint.task_time);
    EXPECT_DOUBLE_EQ(batched[1].dynamic_energy,
                     serial_sprint.dynamic_energy);
    EXPECT_DOUBLE_EQ(speedupOver(batched[0], batched[1]),
                     speedupOver(serial_base, serial_sprint));
}

} // namespace
} // namespace csprint
