/**
 * @file
 * Per-row locking and the shared frontier-row store must be invisible
 * in answers: choose() without prepare() self-heals to the same
 * result, concurrent queries at interleaved budgets and targets match
 * a serial table bit for bit, growing the units cap mid-stream grows
 * rows lazily and in place (never changing answers or stored
 * staircases), and store-shared tables answer exactly like private
 * ones.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/layer_order.h"
#include "core/shape_frontier.h"
#include "model/dsp_model.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace mclp {
namespace {

struct Query
{
    size_t i = 0;
    size_t j = 0;
    int64_t dsp = 0;
    int64_t target = 0;
};

std::vector<Query>
queryMix(const nn::Network &network, const std::vector<size_t> &order,
         core::FrontierTable &reference)
{
    // Probe targets around what each range can actually achieve so
    // both feasible and infeasible queries appear.
    std::vector<Query> queries;
    std::vector<int64_t> budgets{240, 800, 2240, 2880};
    size_t count = order.size();
    for (int64_t dsp : budgets) {
        for (size_t i = 0; i < count; ++i) {
            for (size_t j = i; j < count; ++j) {
                for (int64_t target :
                     {int64_t{20000}, int64_t{300000},
                      int64_t{3000000}}) {
                    auto point =
                        reference.choose(i, j, dsp, target);
                    (void)point;
                    queries.push_back({i, j, dsp, target});
                }
            }
        }
    }
    (void)network;
    return queries;
}

TEST(FrontierTable, ConcurrentInterleavedBudgetsMatchSerial)
{
    nn::Network network = nn::makeAlexNet();
    fpga::DataType type = fpga::DataType::Float32;
    std::vector<size_t> order =
        core::orderLayers(network, core::OrderHeuristic::NmDistance);

    // Serial reference answers.
    core::FrontierTable serial(network, type, order, 6);
    serial.reserveUnits(model::macBudget(2880, type));
    std::vector<Query> queries = queryMix(network, order, serial);
    std::vector<std::optional<core::FrontierPoint>> expected;
    expected.reserve(queries.size());
    for (const Query &q : queries)
        expected.push_back(serial.choose(q.i, q.j, q.dsp, q.target));

    // Concurrent shared table, no prepare(), interleaved budgets.
    core::FrontierTable shared(network, type, order, 6);
    shared.reserveUnits(model::macBudget(2880, type));
    std::vector<std::optional<core::FrontierPoint>> got(
        queries.size());
    util::ThreadPool pool(4);
    pool.parallelFor(queries.size(), [&](size_t qi) {
        const Query &q = queries[qi];
        got[qi] = shared.choose(q.i, q.j, q.dsp, q.target);
    });

    for (size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_EQ(got[qi].has_value(), expected[qi].has_value())
            << "query " << qi;
        if (got[qi]) {
            EXPECT_TRUE(got[qi]->shape == expected[qi]->shape)
                << "query " << qi;
            EXPECT_EQ(got[qi]->dsp, expected[qi]->dsp);
            EXPECT_EQ(got[qi]->cycles, expected[qi]->cycles);
        }
    }
}

/** Every staircase @p table stores equals a fresh build of its range
 * at the cap it holds — all points, not just the ones queried. */
void
expectStoredMatchFresh(const core::FrontierTable &table,
                       const nn::Network &network, fpga::DataType type,
                       const std::string &what)
{
    core::BreakpointCache cache;
    const std::vector<size_t> &order = table.order();
    for (size_t i = 0; i < order.size(); ++i) {
        for (size_t j = i; j < order.size(); ++j) {
            auto [frontier, cap] = table.stored(i, j);
            if (!frontier)
                continue;
            std::vector<const nn::ConvLayer *> layers;
            for (size_t p = i; p <= j; ++p)
                layers.push_back(&network.layer(order[p]));
            core::ShapeFrontier fresh(layers, type, cap, cache);
            auto got = frontier->points();
            auto want = fresh.points();
            std::string where = what + " [" + std::to_string(i) + ".." +
                                std::to_string(j) + "] at cap " +
                                std::to_string(cap);
            ASSERT_EQ(got.size(), want.size()) << where;
            for (size_t p = 0; p < got.size(); ++p) {
                EXPECT_TRUE(got[p].shape == want[p].shape) << where;
                EXPECT_EQ(got[p].dsp, want[p].dsp) << where;
                EXPECT_EQ(got[p].cycles, want[p].cycles) << where;
            }
        }
    }
}

/** choose() on @p got and @p want agree for every range and target. */
void
expectSameAnswers(core::FrontierTable &got, core::FrontierTable &want,
                  int64_t dsp, const std::vector<int64_t> &targets,
                  const std::string &what)
{
    size_t count = got.size();
    for (size_t i = 0; i < count; ++i) {
        for (size_t j = i; j < count; ++j) {
            for (int64_t target : targets) {
                auto a = got.choose(i, j, dsp, target);
                auto b = want.choose(i, j, dsp, target);
                std::string where = what + " [" + std::to_string(i) +
                                    ".." + std::to_string(j) + "] dsp " +
                                    std::to_string(dsp) + " target " +
                                    std::to_string(target);
                ASSERT_EQ(a.has_value(), b.has_value()) << where;
                if (!a)
                    continue;
                EXPECT_TRUE(a->shape == b->shape) << where;
                EXPECT_EQ(a->dsp, b->dsp) << where;
                EXPECT_EQ(a->cycles, b->cycles) << where;
            }
        }
    }
}

TEST(FrontierTable, LazyCapGrowthNeverChangesAnswers)
{
    nn::Network network = nn::makeAlexNet();
    fpga::DataType type = fpga::DataType::Float32;
    std::vector<size_t> order =
        core::orderLayers(network, core::OrderHeuristic::NmDistance);
    std::vector<int64_t> ladder{240, 500, 1000, 2240, 2880, 9600};
    std::vector<int64_t> targets{300000, 3000000};

    core::FrontierTable fresh(network, type, order, 6);
    fresh.reserveUnits(model::macBudget(ladder.back(), type));

    core::FrontierTable grown(network, type, order, 6);
    // Answer small-budget queries first (rows built at a small cap)…
    grown.prepare(240, 3000000, nullptr);
    auto small_before = grown.choose(0, 3, 240, 3000000);
    // …then raise the cap one rung at a time: touched rows grow
    // lazily, and answers at the new rung and at every rung passed
    // must match a table built once at the top.
    for (size_t step = 0; step < ladder.size(); ++step) {
        grown.reserveUnits(model::macBudget(ladder[step], type));
        for (size_t rung = 0; rung <= step; ++rung)
            expectSameAnswers(grown, fresh, ladder[rung], targets,
                              "step " + std::to_string(step));
        expectStoredMatchFresh(grown, network, type,
                               "step " + std::to_string(step));
    }
    auto small_after = grown.choose(0, 3, 240, 3000000);
    ASSERT_EQ(small_after.has_value(), small_before.has_value());
    if (small_after) {
        EXPECT_TRUE(small_after->shape == small_before->shape);
        EXPECT_EQ(small_after->cycles, small_before->cycles);
    }
}

/**
 * Growth oracle over random networks (grouped and depthwise layers
 * included), layer orders, CLP counts (suffix-only rows at 1-2 CLPs)
 * and store sharing: a table climbing a random ascending DSP ladder
 * answers like a table built at each rung, and every staircase it
 * stores equals a fresh build at its cap.
 */
TEST(FrontierTable, CapGrowthMatchesFreshBuildsOnRandomNetworks)
{
    util::SplitMix64 rng(20170629);
    for (int trial = 0; trial < 16; ++trial) {
        nn::Network network(
            "rand" + std::to_string(trial),
            test::randomMixedLayers(rng,
                                    static_cast<int>(rng.nextInt(2, 7))));
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;
        std::vector<size_t> order = core::orderLayers(
            network, trial % 3 == 0 ? core::OrderHeuristic::NmDistance
                                    : core::OrderHeuristic::ComputeToData);
        int max_clps = static_cast<int>(rng.nextInt(1, 4));
        auto store = trial % 4 < 2 ? std::make_shared<core::FrontierRowStore>()
                                   : nullptr;
        core::FrontierTable grown(network, type, order, max_clps, store);

        int64_t dsp = rng.nextInt(10, 300);
        int rungs = static_cast<int>(rng.nextInt(3, 5));
        for (int rung = 0; rung < rungs; ++rung) {
            std::string what = "trial " + std::to_string(trial) +
                               " dsp " + std::to_string(dsp);
            int64_t target = rng.nextInt(0, 2) == 0 ? int64_t{1} << 50
                                                    : rng.nextInt(1000,
                                                                  20000000);
            std::vector<int64_t> targets{target, rng.nextInt(1000, 20000000),
                                         int64_t{1} << 50};
            grown.reserveUnits(model::macBudget(dsp, type));
            grown.prepare(dsp, target, nullptr);
            core::FrontierTable fresh(network, type, order, max_clps);
            fresh.reserveUnits(model::macBudget(dsp, type));
            expectSameAnswers(grown, fresh, dsp, targets, what);
            expectStoredMatchFresh(grown, network, type, what);
            dsp += rng.nextInt(1, 1200);
        }
    }
}

/**
 * Growth of rows whose ranges came partly from a shared store, on
 * SqueezeNet (whose repeated fire modules add hits inside one table
 * too):
 * - A 2-CLP table stores only full suffixes for rows past 0. A 6-CLP
 *   table climbing right behind it builds [i..i], [i..i+1], ... itself
 *   and then hits the suffix, so its builder lags its last range. On
 *   the next rung it climbs first, so growth must drop that range and
 *   build it again at the new cap.
 * - A second 6-CLP table built its rows at the first rung (the first
 *   table asked only a tight target there) and climbs behind the
 *   first table, so it finds every grown range in the store already.
 *   At the end it climbs alone.
 */
TEST(FrontierRowStore, CapGrowthOverSharedRowsMatchesFreshBuilds)
{
    nn::Network network = nn::makeSqueezeNet();
    fpga::DataType type = fpga::DataType::Fixed16;
    std::vector<size_t> order = core::orderLayers(
        network, core::OrderHeuristic::ComputeToData);
    auto store = std::make_shared<core::FrontierRowStore>();
    core::FrontierTable suffixes(network, type, order, 2, store);
    core::FrontierTable first(network, type, order, 6, store);
    core::FrontierTable second(network, type, order, 6, store);
    core::FrontierTable alone(network, type, order, 6);
    const int64_t loose = int64_t{1} << 50;
    std::vector<int64_t> targets{60000, 900000, loose};

    auto climb = [&](core::FrontierTable &table, int64_t dsp,
                     int64_t target) {
        table.reserveUnits(model::macBudget(dsp, type));
        table.prepare(dsp, target, nullptr);
    };
    auto check = [&](int64_t dsp, const std::string &what) {
        core::FrontierTable fresh(network, type, order, 6);
        fresh.reserveUnits(model::macBudget(dsp, type));
        expectSameAnswers(first, fresh, dsp, targets, what + " first");
        expectSameAnswers(second, fresh, dsp, targets, what + " second");
        expectSameAnswers(alone, fresh, dsp, targets, what + " alone");
        expectStoredMatchFresh(suffixes, network, type, what + " suffixes");
        expectStoredMatchFresh(first, network, type, what + " first");
        expectStoredMatchFresh(second, network, type, what + " second");
    };

    std::vector<int64_t> ladder{100, 250, 500, 1000, 2240, 3500};
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
        int64_t dsp = ladder[rung];
        if (rung % 2 == 0) {
            climb(suffixes, dsp, loose);
            climb(first, dsp, rung == 0 ? 60000 : loose);
        } else {
            climb(first, dsp, loose);
            climb(suffixes, dsp, loose);
        }
        climb(second, dsp, loose);
        climb(alone, dsp, loose);
        check(dsp, "dsp " + std::to_string(dsp));
    }
    climb(second, 4000, loose);
    check(4000, "second alone at 4000");
    EXPECT_GT(store->stats().hits, 0u);
}

TEST(FrontierRowStore, SharedTablesAnswerLikePrivateOnes)
{
    nn::Network network = nn::makeSqueezeNet();
    fpga::DataType type = fpga::DataType::Fixed16;
    std::vector<size_t> order = core::orderLayers(
        network, core::OrderHeuristic::ComputeToData);
    int64_t units = model::macBudget(2880, type);

    core::FrontierTable private_table(network, type, order, 6);
    private_table.reserveUnits(units);

    auto store = std::make_shared<core::FrontierRowStore>();
    auto shared_a = std::make_unique<core::FrontierTable>(
        network, type, order, 6, store);
    auto shared_b = std::make_unique<core::FrontierTable>(
        network, type, order, 6, store);
    shared_a->reserveUnits(units);
    shared_b->reserveUnits(units);

    size_t count = order.size();
    for (size_t i = 0; i < count; i += 3) {
        for (size_t j = i; j < count; j += 2) {
            for (int64_t target : {int64_t{60000}, int64_t{900000}}) {
                auto expected =
                    private_table.choose(i, j, 2880, target);
                auto got_a = shared_a->choose(i, j, 2880, target);
                auto got_b = shared_b->choose(i, j, 2880, target);
                ASSERT_EQ(got_a.has_value(), expected.has_value());
                ASSERT_EQ(got_b.has_value(), expected.has_value());
                if (expected) {
                    EXPECT_TRUE(got_a->shape == expected->shape);
                    EXPECT_TRUE(got_b->shape == expected->shape);
                    EXPECT_EQ(got_a->cycles, expected->cycles);
                    EXPECT_EQ(got_b->cycles, expected->cycles);
                }
            }
        }
    }

    // The second table answered (mostly) from rows the first built:
    // SqueezeNet's fire modules repeat dims, so hits dominate.
    core::FrontierRowStore::Stats stats = store->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.rows, 0u);
    EXPECT_GT(store->memoryBytes(), 0u);

    // While tables hold the rows, purge frees nothing; dropping the
    // tables orphans every row and purge reclaims them all.
    EXPECT_EQ(store->purgeUnshared(), 0u) << "tables still hold rows";
    size_t resident = store->stats().rows;
    shared_a.reset();
    shared_b.reset();
    EXPECT_EQ(store->purgeUnshared(), resident);
    EXPECT_EQ(store->stats().rows, 0u);
}

} // namespace
} // namespace mclp
