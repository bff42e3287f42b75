#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace mclp {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(), [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> order;
    pool.parallelFor(5, [&](size_t i) {
        // With no workers the caller runs everything, in order, so an
        // unsynchronized vector is safe here.
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    util::ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](size_t) {
        pool.parallelFor(8, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SequentialLoopsReuseWorkers)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(17, [&](size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), 17);
    }
}

/** Up to a few hundred nanoseconds of work the optimizer cannot
 * elide. */
void
spin(int iterations)
{
    volatile int sink = 0;
    for (int i = 0; i < iterations; ++i)
        sink = sink + i;
}

/**
 * Many callers at once, each running many small loops of short tasks,
 * flat and then nested. Indices are claimed outside the pool's mutex,
 * so a worker can see a job with unclaimed indices and find it
 * drained a moment later; it once went on to run a null job. The pool
 * has more threads than a small machine has cores, so workers are
 * preempted inside that window often: the old pool crashed on nearly
 * every run of this test.
 */
TEST(ThreadPool, ConcurrentSmallLoopsStress)
{
    util::ThreadPool pool(12);
    constexpr int kCallers = 4;
    std::atomic<long> total{0};
    auto n_of = [](int round, int caller) {
        return 2 + static_cast<size_t>((round * 7 + caller) % 5);
    };
    auto run = [&](int rounds, bool nested) {
        std::vector<std::thread> callers;
        for (int c = 0; c < kCallers; ++c) {
            callers.emplace_back([&, c] {
                for (int round = 0; round < rounds; ++round) {
                    auto task = [&, round](size_t i) {
                        spin(static_cast<int>((round * 31 + i * 17) % 301));
                        total.fetch_add(1, std::memory_order_relaxed);
                    };
                    if (nested)
                        pool.parallelFor(n_of(round, c), [&](size_t) {
                            pool.parallelFor(2, task);
                        });
                    else
                        pool.parallelFor(n_of(round, c), task);
                }
            });
        }
        for (std::thread &caller : callers)
            caller.join();
        long expect = 0;
        for (int c = 0; c < kCallers; ++c)
            for (int round = 0; round < rounds; ++round)
                expect += static_cast<long>(n_of(round, c)) * (nested ? 2 : 1);
        return expect;
    };
    long expect = run(2000, false);
    EXPECT_EQ(total.exchange(0), expect);
    expect = run(200, true);
    EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(util::resolveThreads(3), 3);
    EXPECT_GE(util::resolveThreads(0), 1);
}

} // namespace
} // namespace mclp
