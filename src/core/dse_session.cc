#include "core/dse_session.h"

#include <algorithm>
#include <limits>

#include "model/dsp_model.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace mclp {
namespace core {

DseCaches::DseCaches(const nn::Network &network, fpga::DataType type,
                     std::shared_ptr<FrontierRowStore> store,
                     std::shared_ptr<FrontierCache> cache)
    : network_(network), type_(type), store_(std::move(store)),
      tilings_(std::make_shared<TilingOptionCache>()),
      curves_(std::make_shared<TradeoffCurveCache>())
{
    if (cache)
        curves_->attachCache(std::move(cache));
}

FrontierTable &
DseCaches::frontierTable(const nn::Network &network, fpga::DataType type,
                         const std::vector<size_t> &order, int max_clps)
{
    if (&network != &network_ || type != type_)
        util::fatal("DseCaches: caches were created for %s; reuse "
                    "across networks or data types is not allowed",
                    network_.name().c_str());
    std::lock_guard<std::mutex> lock(mutex_);
    auto key = std::make_pair(order, max_clps);
    auto it = frontiers_.find(key);
    if (it == frontiers_.end()) {
        it = frontiers_
                 .emplace(std::move(key),
                          std::make_unique<FrontierTable>(
                              network_, type_, order, max_clps, store_))
                 .first;
    }
    FrontierTable &table = *it->second;
    // Apply the session's reservation so the table is built once at
    // the largest announced budget (see reserveDspBudget()).
    table.reserveUnits(unitsCap_);
    return table;
}

void
DseCaches::reserveDspBudget(int64_t dsp_budget)
{
    int64_t units = model::macBudget(dsp_budget, type_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (units <= unitsCap_)
        return;
    unitsCap_ = units;
    for (auto &entry : frontiers_)
        entry.second->reserveUnits(unitsCap_);
}

size_t
DseCaches::memoryBytes()
{
    size_t bytes = tilings_->memoryBytes() + curves_->memoryBytes();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : frontiers_) {
        bytes += entry.first.first.capacity() * sizeof(size_t) +
                 entry.second->memoryBytes();
    }
    return bytes;
}

DseSession::DseSession(const nn::Network &network, fpga::DataType type,
                       int threads,
                       std::shared_ptr<FrontierRowStore> store,
                       std::shared_ptr<FrontierCache> cache)
    : network_(network), type_(type),
      caches_(std::make_shared<DseCaches>(network, type,
                                          std::move(store),
                                          std::move(cache)))
{
    if (threads < 0)
        util::fatal("DseSession: threads must be >= 0");
    if (util::resolveThreads(threads) > 1)
        pool_ = std::make_unique<util::ThreadPool>(threads);
}

OptimizationResult
DseSession::optimize(const fpga::ResourceBudget &budget,
                     OptimizerOptions options) const
{
    caches_->reserveDspBudget(budget.dspSlices);
    options.caches = caches_;
    return MultiClpOptimizer(network_, type_, budget, options).run();
}

std::vector<OptimizationResult>
DseSession::sweep(const std::vector<fpga::ResourceBudget> &budgets,
                  OptimizerOptions options) const
{
    // Reserve the whole ladder's maximum before the first run so the
    // shared frontier tables are built exactly once, at a cap every
    // rung reads a prefix of.
    for (const fpga::ResourceBudget &budget : budgets)
        caches_->reserveDspBudget(budget.dspSlices);

    std::vector<OptimizationResult> results(budgets.size());
    if (pool_ && budgets.size() > 1) {
        // Budget-level fan-out; each run stays single-threaded so the
        // pool is not oversubscribed by nested heuristic fan-outs.
        OptimizerOptions per_run = options;
        per_run.threads = 1;
        pool_->parallelFor(budgets.size(), [&](size_t i) {
            results[i] = optimize(budgets[i], per_run);
        });
    } else {
        for (size_t i = 0; i < budgets.size(); ++i)
            results[i] = optimize(budgets[i], options);
    }
    return results;
}

std::vector<TradeoffPoint>
DseSession::tradeoffCurve(const ComputePartition &partition) const
{
    MemoryOptimizer memory(network_, type_, caches_->tilings(),
                           caches_->curves());
    return memory.tradeoffCurve(partition);
}

std::vector<fpga::ResourceBudget>
dspLadder(const std::vector<int64_t> &dsp_budgets, double frequency_mhz,
          double dsp_per_bram, const fpga::ResourceBudget *base)
{
    std::vector<fpga::ResourceBudget> budgets;
    budgets.reserve(dsp_budgets.size());
    for (int64_t dsp : dsp_budgets) {
        fpga::ResourceBudget budget;
        if (base)
            budget = *base;
        budget.dspSlices = dsp;
        if (!base)
            budget.bram18k = std::max<int64_t>(
                1, static_cast<int64_t>(static_cast<double>(dsp) /
                                        dsp_per_bram));
        budget.frequencyMhz = frequency_mhz;
        budgets.push_back(budget);
    }
    return budgets;
}

std::vector<int64_t>
parseDspLadderSpec(const std::string &spec)
{
    constexpr int64_t kMaxDsp = std::numeric_limits<int64_t>::max();
    std::vector<int64_t> budgets;
    if (spec.find(':') != std::string::npos) {
        auto parts = util::split(spec, ':');
        if (parts.size() != 3)
            util::fatal("DSP ladder range wants LO:HI:STEP, got '%s'",
                        spec.c_str());
        int64_t lo = util::parseIntFlag("DSP ladder LO", parts[0], 1,
                                        kMaxDsp);
        int64_t hi = util::parseIntFlag("DSP ladder HI", parts[1], lo,
                                        kMaxDsp);
        int64_t step = util::parseIntFlag("DSP ladder STEP", parts[2], 1,
                                          kMaxDsp);
        // hi - lo cannot overflow (both positive), and counting the
        // rungs first keeps the loop below from stepping past
        // INT64_MAX.
        uint64_t rungs = static_cast<uint64_t>(hi - lo) /
                             static_cast<uint64_t>(step) +
                         1;
        if (rungs > kMaxDspLadderRungs)
            util::fatal("DSP ladder range '%s' has %llu rungs (at most "
                        "%zu)",
                        spec.c_str(),
                        static_cast<unsigned long long>(rungs),
                        kMaxDspLadderRungs);
        budgets.reserve(static_cast<size_t>(rungs));
        for (uint64_t r = 0; r < rungs; ++r)
            budgets.push_back(lo + static_cast<int64_t>(r) * step);
        return budgets;
    }
    for (const std::string &item : util::split(spec, ','))
        budgets.push_back(
            util::parseIntFlag("DSP ladder list", item, 1, kMaxDsp));
    if (budgets.empty())
        util::fatal("DSP ladder list '%s' is empty", spec.c_str());
    if (budgets.size() > kMaxDspLadderRungs)
        util::fatal("DSP ladder list has %zu rungs (at most %zu)",
                    budgets.size(), kMaxDspLadderRungs);
    return budgets;
}

} // namespace core
} // namespace mclp
