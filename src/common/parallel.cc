#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
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

namespace
{

using Body = std::function<void(std::size_t, std::size_t)>;
using clock = std::chrono::steady_clock;

double
elapsedMs(clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
}

/**
 * One parallelFor call's range, shared by its caller and the helpers
 * it woke. Helpers hold it by shared_ptr, so one that wakes after the
 * call returned still has valid state to find the range drained in;
 * `body` (the caller's) is only ever run for a claimed chunk, and the
 * caller waits for every claimed chunk before it returns.
 */
struct Call
{
    Call(std::size_t indices, std::size_t chunk_size,
         std::size_t chunk_count, std::size_t workers, const Body &fn)
        : n(indices), chunk(chunk_size), chunks(chunk_count), body(fn),
          busyMs(workers, 0.0)
    {
    }

    /**
     * Claim and run chunks until the range is drained or a body has
     * thrown. The caller works in slot 0; a helper takes the next
     * free slot at its first claim, so one that claims nothing
     * leaves its slot at 0 ms.
     */
    void
    work(bool caller)
    {
        constexpr std::size_t noSlot =
            std::numeric_limits<std::size_t>::max();
        std::size_t slot = caller ? 0 : noSlot;
        auto t0 = clock::now();
        while (!abort.load(std::memory_order_relaxed)) {
            std::size_t c = next.fetch_add(1);
            if (c >= chunks)
                return;
            std::size_t begin = c * chunk;
            std::exception_ptr failure;
            try {
                body(begin, std::min(n, begin + chunk));
            } catch (...) {
                failure = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (slot == noSlot)
                slot = nextSlot++;
            busyMs[slot] = elapsedMs(t0);
            ++finished;
            finishedChanged.notify_one();
            if (failure) {
                if (!error)
                    error = failure;
                abort.store(true, std::memory_order_relaxed);
                return;
            }
        }
    }

    /**
     * Stop all further claims and wait for every chunk already
     * claimed to finish. Called by the caller once its own work()
     * returned.
     */
    void
    close()
    {
        std::size_t claimed = std::min(next.exchange(chunks), chunks);
        std::unique_lock<std::mutex> lock(mutex);
        finishedChanged.wait(lock, [&] { return finished == claimed; });
    }

    const std::size_t n, chunk, chunks;
    const Body &body;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};

    // Guarded by mutex.
    std::mutex mutex;
    std::condition_variable finishedChanged;
    std::size_t finished = 0;
    std::size_t nextSlot = 1;
    std::exception_ptr error;
    std::vector<double> busyMs;
};

/**
 * The helper threads, started on demand and kept for the process.
 * Helper i has its own queue of calls to join, and a call with t
 * workers posts to helpers 0 .. t-2 only: a sweep run again and
 * again on t threads always lands on the same t - 1 helpers and so
 * reuses their thread_local state, however large an earlier call
 * grew the pool.
 */
class HelperPool
{
  public:
    static HelperPool &
    instance()
    {
        static HelperPool pool;
        return pool;
    }

    HelperPool(const HelperPool &) = delete;
    HelperPool &operator=(const HelperPool &) = delete;

    /** Queue `call` on helpers 0 .. count-1, starting any missing. */
    void
    post(const std::shared_ptr<Call> &call, std::size_t count)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // A failed thread start throws before anything is queued;
        // the reserve keeps push_back from throwing past a started
        // thread.
        helpers_.reserve(count);
        while (helpers_.size() < count) {
            auto helper = std::make_unique<Helper>();
            Helper *self = helper.get();
            helper->thread = std::thread([this, self] { serve(*self); });
            helpers_.push_back(std::move(helper));
        }
        for (std::size_t i = 0; i < count; ++i) {
            helpers_[i]->calls.push_back(call);
            helpers_[i]->wake.notify_one();
        }
    }

    ~HelperPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
            for (auto &helper : helpers_)
                helper->wake.notify_one();
        }
        for (auto &helper : helpers_)
            helper->thread.join();
    }

  private:
    struct Helper
    {
        std::condition_variable wake;
        std::deque<std::shared_ptr<Call>> calls;
        std::thread thread;
    };

    HelperPool() = default;

    void
    serve(Helper &self)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            self.wake.wait(lock, [&] {
                return stopping_ || !self.calls.empty();
            });
            if (self.calls.empty())
                return;
            std::shared_ptr<Call> call = std::move(self.calls.front());
            self.calls.pop_front();
            lock.unlock();
            call->work(false);
            call.reset();
            lock.lock();
        }
    }

    std::mutex mutex_;
    std::vector<std::unique_ptr<Helper>> helpers_;
    bool stopping_ = false;
};

} // anonymous namespace

ParallelRun
parallelFor(std::size_t n, std::size_t threads, std::size_t chunk,
            const Body &body)
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

    if (threads == 1) {
        auto t0 = clock::now();
        body(0, n);
        run.workerBusyMs.push_back(elapsedMs(t0));
        return run;
    }

    auto call = std::make_shared<Call>(n, chunk, run.chunks, threads, body);
    try {
        HelperPool::instance().post(call, threads - 1);
    } catch (...) {
        // Helpers that were queued may already be running chunks.
        call->close();
        throw;
    }
    call->work(true);
    call->close();
    // close() saw every claimed chunk finish under the mutex, and a
    // helper that claims nothing never writes its slot.
    run.workerBusyMs = std::move(call->busyMs);
    if (call->error)
        std::rethrow_exception(call->error);
    return run;
}

} // namespace sdnav
