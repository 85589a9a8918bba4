#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace sdnav
{

std::size_t
resolveThreads(std::size_t threads)
{
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, threads);
}

ParallelRun
parallelFor(std::size_t n, std::size_t threads, std::size_t chunk,
            const std::function<void(std::size_t, std::size_t)> &body)
{
    ParallelRun run;
    if (n == 0)
        return run;

    threads = std::min(resolveThreads(threads), n);
    if (chunk == 0) {
        std::size_t chunks_wanted = threads * 4;
        chunk = std::max<std::size_t>(
            1, (n + chunks_wanted - 1) / chunks_wanted);
    }
    run.chunks = (n + chunk - 1) / chunk;
    threads = std::min(threads, run.chunks);

    using clock = std::chrono::steady_clock;
    auto elapsed_ms = [](clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(clock::now() -
                                                         t0)
            .count();
    };

    if (threads == 1) {
        auto t0 = clock::now();
        body(0, n);
        run.workerBusyMs.push_back(elapsed_ms(t0));
        return run;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    run.workerBusyMs.assign(threads, 0.0);
    auto worker = [&](std::size_t slot) {
        auto t0 = clock::now();
        while (!abort.load(std::memory_order_relaxed)) {
            std::size_t c = next.fetch_add(1);
            if (c >= run.chunks)
                break;
            std::size_t begin = c * chunk;
            try {
                body(begin, std::min(n, begin + chunk));
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                abort.store(true, std::memory_order_relaxed);
                break;
            }
        }
        // Each slot is written by exactly one worker and read only
        // after join().
        run.workerBusyMs[slot] = elapsed_ms(t0);
    };
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back(worker, t);
    for (std::thread &w : workers)
        w.join();
    if (error)
        std::rethrow_exception(error);
    return run;
}

} // namespace sdnav
