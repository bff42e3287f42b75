/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef MCLP_TESTS_TEST_HELPERS_H
#define MCLP_TESTS_TEST_HELPERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "model/clp_config.h"
#include "nn/conv_layer.h"
#include "nn/network.h"
#include "util/math.h"
#include "util/string_utils.h"

namespace mclp {
namespace test {

/** Terse layer constructor for tests. */
inline nn::ConvLayer
layer(int64_t n, int64_t m, int64_t r, int64_t c, int64_t k, int64_t s,
      const std::string &name = "L")
{
    return nn::makeConvLayer(name, n, m, r, c, k, s);
}

/** Terse grouped-layer constructor for tests. */
inline nn::ConvLayer
groupedLayer(int64_t n, int64_t m, int64_t r, int64_t c, int64_t k,
             int64_t s, int64_t g, const std::string &name = "G")
{
    return nn::makeConvLayer(name, n, m, r, c, k, s, g);
}

/**
 * @p count random layers (N, M <= 64, R, C in [3, 14], K in {1, 3, 5}),
 * about a third of them grouped or depthwise — the shapes that take
 * the frontier's per-group path.
 */
inline std::vector<nn::ConvLayer>
randomMixedLayers(util::SplitMix64 &rng, int count)
{
    std::vector<nn::ConvLayer> layers;
    for (int i = 0; i < count; ++i) {
        int64_t k = std::vector<int64_t>{1, 3, 5}[static_cast<size_t>(
            rng.nextInt(0, 2))];
        int64_t r = rng.nextInt(3, 14);
        std::string name = util::strprintf("L%d", i);
        switch (rng.nextInt(0, 5)) {
        case 0: {
            int64_t g = rng.nextInt(2, 4);
            layers.push_back(groupedLayer(g * rng.nextInt(1, 24),
                                          g * rng.nextInt(1, 24), r, r, k,
                                          1, g, name));
            break;
        }
        case 1: {
            int64_t c = rng.nextInt(2, 48);  // depthwise
            layers.push_back(groupedLayer(c, c, r, r, k, 1, c, name));
            break;
        }
        default:
            layers.push_back(layer(rng.nextInt(1, 64), rng.nextInt(1, 64),
                                   r, rng.nextInt(3, 14), k, 1, name));
        }
    }
    return layers;
}

/** A single-layer network. */
inline nn::Network
singleLayerNet(const nn::ConvLayer &conv)
{
    return nn::Network("test-net", {conv});
}

/** A single-CLP design covering every layer of @p network. */
inline model::MultiClpDesign
coverAll(const nn::Network &network, int64_t tn, int64_t tm,
         fpga::DataType type = fpga::DataType::Float32)
{
    model::MultiClpDesign design;
    design.dataType = type;
    model::ClpConfig clp;
    clp.shape = model::ClpShape{tn, tm};
    for (size_t i = 0; i < network.numLayers(); ++i) {
        const nn::ConvLayer &l = network.layer(i);
        clp.layers.push_back({i, model::Tiling{l.r, l.c}});
    }
    design.clps.push_back(std::move(clp));
    return design;
}

/** An unconstrained-bandwidth budget with generous DSP/BRAM. */
inline fpga::ResourceBudget
looseBudget()
{
    fpga::ResourceBudget budget;
    budget.dspSlices = 1 << 20;
    budget.bram18k = 1 << 20;
    budget.bandwidthBytesPerCycle = 0.0;
    budget.frequencyMhz = 100.0;
    return budget;
}

} // namespace test
} // namespace mclp

#endif // MCLP_TESTS_TEST_HELPERS_H
