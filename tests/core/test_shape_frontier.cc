/**
 * @file
 * The shape-frontier engine must be an exact drop-in for the
 * brute-force shape search: same minimum-DSP shape, same tie-breaks,
 * for every layer range, budget, and target. These tests check the
 * frontier against an independent all-pairs oracle on randomized
 * layers, the two ComputeOptimizer engines against each other, and
 * that thread count never changes optimizer results.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/compute_optimizer.h"
#include "core/optimizer.h"
#include "core/shape_frontier.h"
#include "model/dsp_model.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/math.h"
#include "util/simd.h"

namespace mclp {
namespace {

/** All-pairs oracle: min-DSP shape, ties to fewer cycles, lower Tn. */
struct OracleChoice
{
    model::ClpShape shape;
    int64_t dsp = 0;
    int64_t cycles = 0;
};

int64_t
rangeCycles(const std::vector<nn::ConvLayer> &layers, int64_t tn,
            int64_t tm)
{
    // A grouped layer runs its G groups of N/G x M/G one after the
    // other on the same shape.
    int64_t total = 0;
    for (const nn::ConvLayer &layer : layers)
        total += layer.g * layer.r * layer.c *
                 util::ceilDiv(layer.groupN(), tn) *
                 util::ceilDiv(layer.groupM(), tm) * layer.k * layer.k;
    return total;
}

std::optional<OracleChoice>
bruteForce(const std::vector<nn::ConvLayer> &layers, fpga::DataType type,
           int64_t units_budget, int64_t cycle_target)
{
    int64_t max_n = 0;
    int64_t max_m = 0;
    for (const nn::ConvLayer &layer : layers) {
        max_n = std::max(max_n, layer.groupN());
        max_m = std::max(max_m, layer.groupM());
    }
    std::optional<OracleChoice> best;
    for (int64_t tn = 1; tn <= std::min(max_n, units_budget); ++tn) {
        for (int64_t tm = 1; tm <= std::min(max_m, units_budget / tn);
             ++tm) {
            int64_t cycles = rangeCycles(layers, tn, tm);
            if (cycles > cycle_target)
                continue;
            int64_t dsp = model::clpDsp({tn, tm}, type);
            bool better =
                !best || dsp < best->dsp ||
                (dsp == best->dsp && cycles < best->cycles);
            if (better)
                best = OracleChoice{{tn, tm}, dsp, cycles};
        }
    }
    return best;
}

std::vector<nn::ConvLayer>
randomLayers(util::SplitMix64 &rng, int count)
{
    std::vector<nn::ConvLayer> layers;
    for (int i = 0; i < count; ++i) {
        int64_t k = std::vector<int64_t>{1, 3, 5}[static_cast<size_t>(
            rng.nextInt(0, 2))];
        std::string name("L");
        name += std::to_string(i);
        layers.push_back(nn::makeConvLayer(
            std::move(name), rng.nextInt(1, 64), rng.nextInt(1, 64),
            rng.nextInt(3, 14), rng.nextInt(3, 14), k, 1));
    }
    return layers;
}

TEST(ShapeFrontier, MatchesBruteForceOnRandomRanges)
{
    util::SplitMix64 rng(20170624);  // ISCA'17 vibes, deterministic
    for (int trial = 0; trial < 40; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(1, 5)));
        std::vector<const nn::ConvLayer *> ptrs;
        for (const auto &layer : layers)
            ptrs.push_back(&layer);
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;
        int64_t units_budget = rng.nextInt(1, 600);

        core::BreakpointCache cache;
        core::ShapeFrontier frontier(ptrs, type, units_budget, cache);

        // Probe targets around the achievable range, plus extremes.
        int64_t tight = rangeCycles(layers, layers[0].n, layers[0].m);
        for (int probe = 0; probe < 12; ++probe) {
            int64_t target = probe == 0
                                 ? 1
                                 : tight * (probe + 1) / 3 + probe;
            auto expect =
                bruteForce(layers, type, units_budget, target);
            auto got = frontier.query(target);
            ASSERT_EQ(expect.has_value(), got.has_value())
                << "feasibility mismatch at target " << target;
            if (!expect)
                continue;
            EXPECT_EQ(expect->shape.tn, got->shape.tn);
            EXPECT_EQ(expect->shape.tm, got->shape.tm);
            EXPECT_EQ(expect->dsp, got->dsp);
            EXPECT_EQ(expect->cycles, got->cycles);
        }
    }
}

TEST(ShapeFrontier, PointsFormStrictStaircase)
{
    util::SplitMix64 rng(7);
    auto layers = randomLayers(rng, 4);
    std::vector<const nn::ConvLayer *> ptrs;
    for (const auto &layer : layers)
        ptrs.push_back(&layer);
    core::BreakpointCache cache;
    core::ShapeFrontier frontier(ptrs, fpga::DataType::Float32, 500,
                                 cache);
    ASSERT_FALSE(frontier.empty());
    const auto points = frontier.points();
    for (size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].dsp, points[i - 1].dsp);
        EXPECT_LT(points[i].cycles, points[i - 1].cycles);
    }
}

/** The two engines must produce identical candidate partitions. */
TEST(ShapeFrontier, EnginesAgreeOnComputeCandidates)
{
    util::SplitMix64 rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(2, 8)));
        nn::Network net("rand", layers);
        std::vector<size_t> order(net.numLayers());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;

        core::ComputeOptimizer fast(net, fpga::DataType::Float32, order,
                                    4, core::ComputeEngine::Frontier);
        core::ComputeOptimizer slow(net, fpga::DataType::Float32, order,
                                    4, core::ComputeEngine::Reference);
        for (int probe = 0; probe < 6; ++probe) {
            int64_t budget = rng.nextInt(100, 3000);
            int64_t target = rng.nextInt(1000, 4000000);
            auto a = fast.optimize(budget, target);
            auto b = slow.optimize(budget, target);
            ASSERT_EQ(a.size(), b.size())
                << "candidate count diverged";
            for (size_t ci = 0; ci < a.size(); ++ci) {
                EXPECT_EQ(a[ci].totalDsp, b[ci].totalDsp);
                ASSERT_EQ(a[ci].groups.size(), b[ci].groups.size());
                for (size_t g = 0; g < a[ci].groups.size(); ++g) {
                    EXPECT_EQ(a[ci].groups[g].shape.tn,
                              b[ci].groups[g].shape.tn);
                    EXPECT_EQ(a[ci].groups[g].shape.tm,
                              b[ci].groups[g].shape.tm);
                    EXPECT_EQ(a[ci].groups[g].cycles,
                              b[ci].groups[g].cycles);
                    EXPECT_EQ(a[ci].groups[g].layers,
                              b[ci].groups[g].layers);
                }
            }
        }
    }
}

/** Full-optimizer agreement: frontier + bisection == Listing 3. */
TEST(ShapeFrontier, EnginesAgreeOnAlexNetDesigns)
{
    nn::Network net = nn::makeAlexNet();
    for (const char *device : {"485t", "690t"}) {
        auto budget =
            fpga::standardBudget(fpga::deviceByName(device), 100.0);
        core::OptimizerOptions fast;
        fast.engine = core::OptimizerEngine::Frontier;
        core::OptimizerOptions slow;
        slow.engine = core::OptimizerEngine::Reference;
        auto a = core::MultiClpOptimizer(net, fpga::DataType::Float32,
                                         budget, fast)
                     .run();
        auto b = core::MultiClpOptimizer(net, fpga::DataType::Float32,
                                         budget, slow)
                     .run();
        EXPECT_EQ(a.metrics.epochCycles, b.metrics.epochCycles);
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_DOUBLE_EQ(a.achievedTarget, b.achievedTarget);
        EXPECT_EQ(a.usedHeuristic, b.usedHeuristic);
        EXPECT_EQ(a.design.toString(net), b.design.toString(net));
    }
}

/**
 * Randomized full-optimizer parity: the bisection fast path rests on
 * an empirical monotonicity assumption (see runWithOrder), so probe
 * it across random networks and budgets, not just the zoo.
 */
TEST(ShapeFrontier, EnginesAgreeOnRandomNetworks)
{
    util::SplitMix64 rng(424242);
    for (int trial = 0; trial < 8; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(2, 6)));
        nn::Network net("rand", layers);
        fpga::ResourceBudget budget;
        budget.dspSlices = rng.nextInt(60, 2800);
        budget.bram18k = rng.nextInt(100, 2000);
        core::OptimizerOptions fast;
        fast.engine = core::OptimizerEngine::Frontier;
        fast.maxClps = 3;
        core::OptimizerOptions slow;
        slow.engine = core::OptimizerEngine::Reference;
        slow.maxClps = 3;
        std::optional<core::OptimizationResult> a;
        std::optional<core::OptimizationResult> b;
        try {
            a = core::MultiClpOptimizer(net, fpga::DataType::Float32,
                                        budget, fast)
                    .run();
        } catch (const util::FatalError &) {
        }
        try {
            b = core::MultiClpOptimizer(net, fpga::DataType::Float32,
                                        budget, slow)
                    .run();
        } catch (const util::FatalError &) {
        }
        ASSERT_EQ(a.has_value(), b.has_value())
            << "feasibility diverged on trial " << trial;
        if (!a)
            continue;
        EXPECT_EQ(a->metrics.epochCycles, b->metrics.epochCycles);
        EXPECT_EQ(a->iterations, b->iterations);
        EXPECT_EQ(a->design.toString(net), b->design.toString(net))
            << "designs diverged on trial " << trial;
    }
}

/**
 * Bandwidth-limited feasibility is not monotone in the target, so the
 * Frontier engine must fall back to the linear scan there and still
 * match the Reference engine exactly (this diverged once: a galloping
 * search skipped the true first-feasible step on this very case).
 */
TEST(ShapeFrontier, EnginesAgreeUnderBandwidthCap)
{
    nn::Network net = nn::makeSqueezeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 170.0);
    budget.setBandwidthGbps(21.3);
    core::OptimizerOptions fast;
    fast.engine = core::OptimizerEngine::Frontier;
    core::OptimizerOptions slow;
    slow.engine = core::OptimizerEngine::Reference;
    auto a = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, fast)
                 .run();
    auto b = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, slow)
                 .run();
    EXPECT_EQ(a.metrics.epochCycles, b.metrics.epochCycles);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.design.toString(net), b.design.toString(net));
}

/** Thread count must never change results. */
TEST(ShapeFrontier, ThreadCountDoesNotChangeResults)
{
    nn::Network net = nn::makeSqueezeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 170.0);
    core::OptimizerOptions one;
    one.threads = 1;
    core::OptimizerOptions many;
    many.threads = 8;
    auto a = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, one)
                 .run();
    auto b = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, many)
                 .run();
    EXPECT_EQ(a.metrics.epochCycles, b.metrics.epochCycles);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_DOUBLE_EQ(a.achievedTarget, b.achievedTarget);
    EXPECT_EQ(a.usedHeuristic, b.usedHeuristic);
    EXPECT_EQ(a.design.toString(net), b.design.toString(net));
}

void
expectSameStaircase(const core::ShapeFrontier &got,
                    const core::ShapeFrontier &want, const std::string &what)
{
    auto a = got.points();
    auto b = want.points();
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t p = 0; p < a.size(); ++p) {
        EXPECT_EQ(a[p].shape.tn, b[p].shape.tn) << what << " point " << p;
        EXPECT_EQ(a[p].shape.tm, b[p].shape.tm) << what << " point " << p;
        EXPECT_EQ(a[p].dsp, b[p].dsp) << what << " point " << p;
        EXPECT_EQ(a[p].cycles, b[p].cycles) << what << " point " << p;
    }
}

/**
 * Grow one builder through an ascending cap sequence, interleaved with
 * its layers, extending every prefix staircase in place; each must
 * equal a fresh build of that prefix at the cap now in force, and a
 * build under a smaller budget must still read the right prefix.
 */
void
checkGrowthAgainstFreshBuilds(const std::vector<nn::ConvLayer> &layers,
                              fpga::DataType type,
                              const std::vector<int64_t> &caps,
                              util::SplitMix64 &rng, const std::string &what)
{
    core::BreakpointCache cache;
    auto fresh = [&](size_t prefix, int64_t cap) {
        std::vector<const nn::ConvLayer *> ptrs;
        for (size_t p = 0; p < prefix; ++p)
            ptrs.push_back(&layers[p]);
        return core::ShapeFrontier(ptrs, type, cap, cache);
    };

    core::ShapeFrontier::Builder builder;
    size_t step = 0;
    builder.setUnitsCap(caps[step]);
    std::vector<core::ShapeFrontier> built;
    auto grow = [&] {
        int64_t cap = caps[++step];
        size_t replayed = 0;
        builder.growUnitsCap(cap, cache, [&](size_t layer) {
            ASSERT_EQ(layer, replayed++);
            built[layer] = builder.extendFrontier(built[layer], type);
        });
        EXPECT_EQ(replayed, built.size()) << what;
        for (size_t p = 0; p < built.size(); ++p)
            expectSameStaircase(built[p], fresh(p + 1, cap),
                                what + " prefix " + std::to_string(p) +
                                    " grown to " + std::to_string(cap));
    };
    for (size_t k = 0; k < layers.size(); ++k) {
        builder.addLayer(layers[k], cache);
        // Alternate the fused (staged update rides the walk) and
        // flushed entries into growth.
        if (rng.nextInt(0, 1) == 0 || k + 1 == layers.size())
            built.push_back(builder.build(type, caps[step]));
        else
            built.push_back(fresh(k + 1, caps[step]));
        while (step + 1 < caps.size() && rng.nextInt(0, 2) == 0)
            grow();
    }
    while (step + 1 < caps.size())
        grow();

    int64_t cap = caps.back();
    expectSameStaircase(builder.build(type, cap), fresh(layers.size(), cap),
                        what + " full build after growth");
    int64_t smaller = rng.nextInt(1, cap);
    expectSameStaircase(builder.build(type, smaller),
                        fresh(layers.size(), smaller),
                        what + " capped build after growth");
}

std::vector<int64_t>
ascendingCaps(util::SplitMix64 &rng)
{
    std::vector<int64_t> caps{rng.nextInt(1, 80)};
    int steps = static_cast<int>(rng.nextInt(1, 4));
    for (int s = 0; s < steps; ++s)
        caps.push_back(caps.back() + rng.nextInt(1, 300));
    return caps;
}

TEST(ShapeFrontier, CapGrowthMatchesFreshBuilds)
{
    util::SplitMix64 rng(20170628);
    for (bool scalar : {false, true}) {
        // Forced-scalar kernels must leave growth untouched too.
        util::simd::setForceScalar(scalar);
        for (int trial = 0; trial < 40; ++trial) {
            auto layers = test::randomMixedLayers(
                rng, static_cast<int>(rng.nextInt(1, 6)));
            fpga::DataType type = trial % 2 == 0
                                      ? fpga::DataType::Float32
                                      : fpga::DataType::Fixed16;
            checkGrowthAgainstFreshBuilds(
                layers, type, ascendingCaps(rng), rng,
                "trial " + std::to_string(trial) +
                    (scalar ? " (scalar)" : ""));
        }
    }
    util::simd::setForceScalar(false);
}

/**
 * Past 65536 merged breakpoints per dimension the live cells are
 * indexed by int32 pair lanes instead of packed 16-bit halves; growth
 * must place and replay its new cells the same way there, and the
 * result must still be the brute-force choice.
 */
TEST(ShapeFrontier, CapGrowthMatchesFreshBuildsInPairLanes)
{
    constexpr int64_t kWide = int64_t{1} << 31;
    core::BreakpointCache probe;
    ASSERT_GT(probe.table(kWide).bps.size(), size_t{1} << 16)
        << "the wide layer must force the pair-lane layout";
    util::SplitMix64 rng(31);
    for (int trial = 0; trial < 3; ++trial) {
        std::vector<nn::ConvLayer> layers = randomLayers(rng, 2);
        layers.insert(layers.begin() + trial % 3,
                      nn::makeConvLayer("wide", kWide, rng.nextInt(1, 64),
                                        1, 1, 1, 1));
        std::vector<int64_t> caps{rng.nextInt(1, 40)};
        caps.push_back(caps.back() + rng.nextInt(1, 200));
        caps.push_back(caps.back() + rng.nextInt(1, 200));
        checkGrowthAgainstFreshBuilds(layers, fpga::DataType::Fixed16,
                                      caps, rng,
                                      "pair trial " + std::to_string(trial));

        core::ShapeFrontier::Builder builder;
        core::BreakpointCache cache;
        builder.setUnitsCap(caps[0]);
        for (const nn::ConvLayer &layer : layers)
            builder.addLayer(layer, cache);
        builder.growUnitsCap(caps.back(), cache);
        core::ShapeFrontier grown =
            builder.build(fpga::DataType::Fixed16, caps.back());
        for (const core::FrontierPoint &point : grown.points()) {
            for (int64_t target : {point.cycles, point.cycles - 1}) {
                auto expect = bruteForce(layers, fpga::DataType::Fixed16,
                                         caps.back(), target);
                auto got = grown.query(target);
                ASSERT_EQ(expect.has_value(), got.has_value());
                if (!expect)
                    continue;
                EXPECT_EQ(expect->shape.tn, got->shape.tn);
                EXPECT_EQ(expect->shape.tm, got->shape.tm);
                EXPECT_EQ(expect->cycles, got->cycles);
            }
        }
    }
}

TEST(BreakpointCache, BreakpointsAreExactlyTheCeilingSteps)
{
    core::BreakpointCache cache;
    for (int64_t d : {1, 2, 7, 10, 96, 192, 384, 1000}) {
        const auto &table = cache.table(d);
        ASSERT_FALSE(table.bps.empty());
        EXPECT_EQ(table.bps.front(), 1);
        for (size_t k = 0; k < table.bps.size(); ++k) {
            int64_t t = table.bps[k];
            EXPECT_EQ(table.ceils[k], util::ceilDiv(d, t));
            if (t > 1) {
                EXPECT_NE(util::ceilDiv(d, t), util::ceilDiv(d, t - 1))
                    << "breakpoint " << t << " of " << d
                    << " changes nothing";
            }
        }
        // Completeness: every step of ceil(d/t) is listed.
        size_t k = 0;
        for (int64_t t = 1; t <= d; ++t) {
            if (k + 1 < table.bps.size() && table.bps[k + 1] <= t)
                ++k;
            EXPECT_EQ(util::ceilDiv(d, t), table.ceils[k]);
        }
    }
}

} // namespace
} // namespace mclp
