/**
 * @file
 * parallelMap: run a batch of independent jobs on threads and return
 * their results in submission order.
 *
 * Every paper figure is a batch of independent coupled runs (each owns
 * its Machine and ThermalNetwork, so runs share no mutable state), and
 * the figure and ablation drivers stay a "build jobs, map, print
 * table" pipeline on top of this one function.
 */

#ifndef CSPRINT_COMMON_PARALLEL_HH
#define CSPRINT_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace csprint {

/**
 * Run every job in @p jobs on up to @p workers threads (0 picks the
 * hardware concurrency; the calling thread is one of them) and return
 * the results in submission order. A job that throws does not stop
 * the others: every job runs to completion, then the exception of the
 * earliest-submitted failing job is rethrown. Results must be default
 * constructible.
 */
template <class Job>
std::vector<std::invoke_result_t<const Job &>>
parallelMap(const std::vector<Job> &jobs, int workers = 0)
{
    using T = std::invoke_result_t<const Job &>;
    static_assert(!std::is_same_v<T, bool>,
                  "std::vector<bool> elements cannot be written "
                  "from several threads");
    std::vector<T> out(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
            try {
                out[i] = jobs[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (workers <= 0)
        workers = static_cast<int>(std::thread::hardware_concurrency());
    const std::size_t threads_wanted = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(workers, 1)), jobs.size());
    std::vector<std::thread> threads;
    threads.reserve(threads_wanted);
    try {
        for (std::size_t t = 1; t < threads_wanted; ++t)
            threads.emplace_back(work);
    } catch (const std::system_error &) {
        // Out of threads: the ones that started share the batch.
    }
    work();
    for (std::thread &t : threads)
        t.join();

    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return out;
}

} // namespace csprint

#endif // CSPRINT_COMMON_PARALLEL_HH
