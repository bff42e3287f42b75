#include "util/thread_pool.h"

#include <algorithm>

namespace mclp {
namespace util {

int
resolveThreads(int threads)
{
    if (threads > 0)
        return threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    int count = resolveThreads(threads);
    workers_.reserve(static_cast<size_t>(count - 1));
    for (int t = 1; t < count; ++t)
        workers_.emplace_back([this, t] {
            workerLoop(static_cast<size_t>(t));
        });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runJob(Job &job)
{
    // Once next >= n every index is claimed, so runJob returns without
    // touching fn; only the Job header must outlive the loop, which the
    // board's shared_ptr guarantees.
    for (;;) {
        size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return;
        (*job.fn)(i);
        job.done.fetch_add(1, std::memory_order_release);
    }
}

std::shared_ptr<ThreadPool::Job>
ThreadPool::stealLocked(const Job *except)
{
    for (const std::shared_ptr<Job> &job : jobs_) {
        if (job.get() != except &&
            job->next.load(std::memory_order_relaxed) < job->n) {
            return job;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(size_t)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Take the job inside the wait: Job::next advances outside the
        // mutex, so a second stealLocked() after the wait could find
        // every index claimed and return null.
        std::shared_ptr<Job> job;
        wake_.wait(lock, [this, &job] {
            if (stop_)
                return true;
            job = stealLocked(nullptr);
            return job != nullptr;
        });
        if (stop_)
            return;
        lock.unlock();
        runJob(*job);
        job.reset();
        lock.lock();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &fn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(job);
    }
    wake_.notify_all();

    // Claim our own indices first, then steal from other active jobs
    // while stragglers finish ours (keeps nested loops deadlock free
    // and this thread useful).
    runJob(*job);
    while (job->done.load(std::memory_order_acquire) < n) {
        std::shared_ptr<Job> other;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            other = stealLocked(job.get());
        }
        if (other)
            runJob(*other);
        else
            std::this_thread::yield();
    }

    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
}

} // namespace util
} // namespace mclp
