/**
 * @file
 * dse-sweep — budget-sweep front end to the warm DSE session layer.
 *
 * A thin client of the DSE plan layer: flags build a core::DseRequest
 * ladder, service::answerRequest() executes it through a local
 * one-session registry (shape frontiers, tiling options, and memory
 * tradeoff curves built once; every budget answered by truncation),
 * and this file renders. Results are bit-identical to independent
 * cold mclp-opt runs per budget, which --compare-cold verifies
 * in-process (and times, reporting the warm-session speedup).
 *
 * --adjacent additionally optimizes every rung under the Section-4.1
 * adjacent-layers schedule and prints the latency/throughput tradeoff
 * next to the throughput designs: latency drops from numLayers to
 * numClps epochs, at a possible cost in img/s.
 *
 * Examples:
 *   dse-sweep --network alexnet --sweep 500:4000:500
 *   dse-sweep --network alexnet --budgets 2240,2880,9600 --single
 *   dse-sweep --network squeezenet --device 690t --budgets 1000,2880 \
 *             --max-clps 6 --compare-cold
 *   dse-sweep --network alexnet --budgets 500,1000,2880 --adjacent
 *   dse-sweep --joint alexnet,squeezenet --device 690t \
 *             --budgets 1000,2000,2880
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dse_request.h"
#include "core/dse_session.h"
#include "core/frontier_cache.h"
#include "core/session_registry.h"
#include "nn/parser.h"
#include "nn/zoo.h"
#include "service/dse_service.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/string_utils.h"
#include "util/table.h"

using namespace mclp;

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
printUsage()
{
    std::printf(
        "dse-sweep: optimize one CNN for a ladder of DSP budgets "
        "through a warm DSE session\n\n"
        "usage: dse-sweep [options]\n"
        "  --network NAME       zoo network: alexnet, vggnet-e,\n"
        "                       squeezenet, googlenet (default alexnet)\n"
        "  --layers FILE        custom network file (name N M R C K S\n"
        "                       per line)\n"
        "  --joint LIST         sweep a joint multi-network workload\n"
        "                       (Section 4.3): comma-separated\n"
        "                       [NAME:]REF entries (REFs with '/' or\n"
        "                       '.' are network files, others zoo\n"
        "                       networks), concatenated into one\n"
        "                       partitioning problem per rung\n"
        "  --joint-weights LIST images per epoch for each --joint\n"
        "                       entry (default all 1)\n"
        "  --budgets A,B,C      explicit DSP-slice ladder\n"
        "  --sweep LO:HI:STEP   arithmetic DSP-slice ladder\n"
        "  --device NAME        485t | 690t | vu9p | vu11p | vu13p |\n"
        "                       u280: take BRAM and clock context\n"
        "                       from this part\n"
        "                       (default: BRAM = DSP / 1.3, Figure 7)\n"
        "  --type T             float | fixed (default float)\n"
        "  --mhz F              clock frequency (default 100)\n"
        "  --bandwidth-gbps X   off-chip bandwidth cap per budget\n"
        "  --max-clps N         CLP limit (default 6)\n"
        "  --single             Single-CLP baseline designs\n"
        "  --adjacent           also optimize the adjacent-layers\n"
        "                       (low-latency) schedule per rung and\n"
        "                       print the latency/throughput tradeoff\n"
        "  --threads N          sweep worker threads (0 = all cores;\n"
        "                       default 1; never changes results)\n"
        "  --cache-dir DIR      persistent frontier cache: start the\n"
        "                       sweep cache-warm from DIR and flush new\n"
        "                       state on exit (bit-identical designs)\n"
        "  --csv FILE           write the full series to FILE\n"
        "  --compare-cold       also run per-budget cold optimizations,\n"
        "                       check bit-identical designs, and report\n"
        "                       the warm-session speedup\n"
        "  --help               this text\n");
}

struct Options
{
    core::DseRequest request;
    bool adjacent = false;
    std::optional<std::string> cacheDir;
    std::optional<std::string> csvFile;
    bool compareCold = false;
};

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
    core::DseRequest &request = opts.request;
    auto need_value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", flag);
        return argv[++i];
    };
    bool network_given = false;
    std::optional<std::string> joint_spec;
    std::optional<std::string> joint_weights;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return std::nullopt;
        } else if (arg == "--network") {
            request.network = need_value(i, "--network");
            network_given = true;
        } else if (arg == "--layers") {
            nn::Network parsed =
                nn::parseNetworkFile(need_value(i, "--layers"));
            request.network = parsed.name();
            request.layers = parsed.layers();
        } else if (arg == "--joint") {
            joint_spec = need_value(i, "--joint");
        } else if (arg == "--joint-weights") {
            joint_weights = need_value(i, "--joint-weights");
        } else if (arg == "--budgets" || arg == "--sweep") {
            request.dspBudgets =
                core::parseDspLadderSpec(need_value(i, arg.c_str()));
        } else if (arg == "--device") {
            request.device = need_value(i, "--device");
        } else if (arg == "--type") {
            request.type =
                fpga::dataTypeByName(need_value(i, "--type"));
        } else if (arg == "--mhz") {
            request.mhz = util::parseDoubleFlag(
                "--mhz", need_value(i, "--mhz"), 1e-3, 1e6);
        } else if (arg == "--bandwidth-gbps") {
            request.bandwidthGbps = util::parseDoubleFlag(
                "--bandwidth-gbps", need_value(i, "--bandwidth-gbps"),
                1e-6, 1e9);
        } else if (arg == "--max-clps") {
            request.maxClps = static_cast<int>(util::parseIntFlag(
                "--max-clps", need_value(i, "--max-clps"), 1, 1 << 20));
        } else if (arg == "--single") {
            request.mode = core::DseMode::SingleClp;
        } else if (arg == "--adjacent") {
            opts.adjacent = true;
        } else if (arg == "--threads") {
            request.threads = static_cast<int>(util::parseIntFlag(
                "--threads", need_value(i, "--threads"), 0, 4096));
        } else if (arg == "--cache-dir") {
            opts.cacheDir = need_value(i, "--cache-dir");
        } else if (arg == "--csv") {
            opts.csvFile = need_value(i, "--csv");
        } else if (arg == "--compare-cold") {
            opts.compareCold = true;
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    if (joint_spec) {
        if (network_given || !request.layers.empty())
            util::fatal("--joint names the networks; drop --network/"
                        "--layers");
        request.subnets = core::parseJointSpec(*joint_spec);
        if (joint_weights)
            core::applyJointWeights(request.subnets, *joint_weights);
        request.network.clear();
        request.layers.clear();
    } else if (joint_weights) {
        util::fatal("--joint-weights needs --joint");
    }
    if (request.dspBudgets.empty())
        util::fatal("one of --budgets or --sweep is required "
                    "(try --help)");
    if (opts.adjacent && request.mode == core::DseMode::SingleClp)
        util::fatal("--adjacent studies Multi-CLP schedules; drop "
                    "--single");
    return opts;
}

double
imgPerSec(const core::DsePoint &point, double mhz)
{
    return mhz * 1e6 / static_cast<double>(point.epochCycles);
}

/** Run the request cold (per-rung MultiClpOptimizer), for parity. */
size_t
compareCold(const core::DseRequest &request,
            const core::DseResponse &warm)
{
    nn::Network network = core::resolveNetwork(request);
    std::vector<fpga::ResourceBudget> budgets =
        core::requestBudgets(request);
    core::OptimizerOptions options = core::requestOptions(request);
    size_t mismatches = 0;
    for (size_t i = 0; i < budgets.size(); ++i) {
        auto cold = core::MultiClpOptimizer(network, request.type,
                                            budgets[i], options)
                        .run();
        auto cold_design =
            core::canonicalizeSchedule(cold.design, network);
        if (!(cold_design == warm.points[i].design) ||
            cold.metrics.epochCycles != warm.points[i].epochCycles) {
            ++mismatches;
            std::fprintf(stderr,
                         "PARITY MISMATCH (%s) at %lld DSP slices\n",
                         core::dseModeName(request.mode).c_str(),
                         static_cast<long long>(
                             budgets[i].dspSlices));
        }
    }
    return mismatches;
}

int
runTool(const Options &opts)
{
    const core::DseRequest &request = opts.request;
    nn::Network network = core::resolveNetwork(request);
    std::vector<fpga::ResourceBudget> budgets =
        core::requestBudgets(request);

    std::printf("network: %s (%zu conv layers), %s, %s, %.0f MHz\n",
                network.name().c_str(), network.numLayers(),
                fpga::dataTypeName(request.type).c_str(),
                request.mode == core::DseMode::SingleClp
                    ? "Single-CLP"
                    : util::strprintf("Multi-CLP (<=%d)",
                                      request.maxClps)
                          .c_str(),
                request.mhz);
    std::printf("sweep:   %zu DSP budgets, %s BRAM context%s%s\n\n",
                budgets.size(),
                !request.device.empty() ? request.device.c_str()
                                        : "DSP/1.3",
                budgets.front().bandwidthLimited()
                    ? util::strprintf(", %.1f GB/s cap",
                                      budgets.front().bandwidthGbps())
                          .c_str()
                    : "",
                opts.adjacent ? ", + adjacent-layers ladder" : "");

    // Both ladders (and --compare-cold reruns) share one registry
    // session: one frontier build for the whole tool invocation —
    // loaded from, and flushed back to, --cache-dir when given.
    std::shared_ptr<core::FrontierCache> cache;
    if (opts.cacheDir)
        cache = std::make_shared<core::FrontierCache>(*opts.cacheDir);
    core::SessionRegistry registry(1, 0, request.threads, cache);
    auto warm_start = std::chrono::steady_clock::now();
    core::DseResponse response =
        service::answerRequest(request, &registry);
    if (!response.ok)
        util::fatal("%s", response.error.c_str());

    core::DseRequest latency_request = request;
    core::DseResponse latency_response;
    if (opts.adjacent) {
        latency_request.mode = core::DseMode::Latency;
        latency_response =
            service::answerRequest(latency_request, &registry);
        if (!latency_response.ok)
            util::fatal("%s", latency_response.error.c_str());
    }
    double warm_ms = msSince(warm_start);

    util::TextTable table({"DSP budget", "BRAM", "CLPs", "epoch (kcyc)",
                           "img/s", "DSP used", "BRAM used"});
    table.setTitle("warm DseSession sweep");
    std::vector<std::string> csv_columns{
        "dsp", "bram", "clps", "epoch_cycles", "img_s", "dsp_used",
        "bram_used"};
    if (opts.adjacent)
        csv_columns.insert(csv_columns.begin(), "mode");
    util::CsvWriter csv(csv_columns);
    auto csv_row = [&](const char *mode, const core::DsePoint &point) {
        std::vector<std::string> row{
            std::to_string(point.budget.dspSlices),
            std::to_string(point.budget.bram18k),
            std::to_string(point.design.clps.size()),
            std::to_string(point.epochCycles),
            util::strprintf("%.2f", imgPerSec(point, request.mhz)),
            std::to_string(point.dspUsed),
            std::to_string(point.bramUsed)};
        if (opts.adjacent)
            row.insert(row.begin(), mode);
        csv.addRow(row);
    };
    for (const core::DsePoint &point : response.points) {
        table.addRow({util::withCommas(point.budget.dspSlices),
                      util::withCommas(point.budget.bram18k),
                      std::to_string(point.design.clps.size()),
                      util::withCommas((point.epochCycles + 500) / 1000),
                      util::strprintf("%.1f",
                                      imgPerSec(point, request.mhz)),
                      util::withCommas(point.dspUsed),
                      util::withCommas(point.bramUsed)});
        csv_row("throughput", point);
    }
    std::printf("%s\n", table.render().c_str());

    if (!response.subnets.empty()) {
        // Joint sweep (Section 4.3): attribute the largest rung's
        // design back to the sub-networks. One joint epoch advances
        // one image of every sub-network copy, so the img/s column
        // above is per network, not aggregate.
        const core::DsePoint &top = response.points.back();
        util::TextTable joint(
            {"sub-network", "global layers", "CLPs serving"});
        joint.setTitle(util::strprintf(
            "joint attribution at %lld DSP slices",
            static_cast<long long>(top.budget.dspSlices)));
        for (const core::DseSubNetSpan &span : response.subnets) {
            size_t clps = 0;
            for (const model::ClpConfig &clp : top.design.clps) {
                for (const model::LayerBinding &binding : clp.layers) {
                    if (binding.layerIdx >= span.firstLayer &&
                        binding.layerIdx <
                            span.firstLayer + span.numLayers) {
                        ++clps;
                        break;
                    }
                }
            }
            joint.addRow(
                {span.name,
                 util::strprintf("%zu..%zu", span.firstLayer,
                                 span.firstLayer + span.numLayers - 1),
                 std::to_string(clps)});
        }
        std::printf("%s\n", joint.render().c_str());
    }

    if (opts.adjacent) {
        // Section 4.1: constraining CLPs to adjacent layers cuts
        // latency (and in-flight images) from numLayers to numClps
        // epochs, possibly costing throughput.
        util::TextTable tradeoff(
            {"DSP budget", "img/s tput", "img/s adj", "tput cost",
             "latency tput", "latency adj", "in-flight adj"});
        tradeoff.setTitle(
            "latency/throughput tradeoff (adjacent-layers ladder)");
        for (size_t i = 0; i < latency_response.points.size(); ++i) {
            const core::DsePoint &tput = response.points[i];
            const core::DsePoint &adj = latency_response.points[i];
            double tput_imgs = imgPerSec(tput, request.mhz);
            double adj_imgs = imgPerSec(adj, request.mhz);
            tradeoff.addRow(
                {util::withCommas(adj.budget.dspSlices),
                 util::strprintf("%.1f", tput_imgs),
                 util::strprintf("%.1f", adj_imgs),
                 util::percent(1.0 - adj_imgs / tput_imgs),
                 util::strprintf(
                     "%lld ep (%.1f ms)",
                     static_cast<long long>(
                         tput.schedule.latencyEpochs),
                     1e3 * tput.schedule.latencySeconds(
                               tput.epochCycles, request.mhz)),
                 util::strprintf(
                     "%lld ep (%.1f ms)",
                     static_cast<long long>(
                         adj.schedule.latencyEpochs),
                     1e3 * adj.schedule.latencySeconds(
                               adj.epochCycles, request.mhz)),
                 std::to_string(adj.schedule.imagesInFlight)});
            csv_row("latency", adj);
        }
        std::printf("%s\n", tradeoff.render().c_str());
    }

    std::printf("warm session: %.1f ms for %zu budgets%s "
                "(one frontier build for the whole ladder)\n",
                warm_ms,
                budgets.size(),
                opts.adjacent ? " x 2 schedules" : "");

    if (opts.compareCold) {
        auto cold_start = std::chrono::steady_clock::now();
        size_t mismatches = compareCold(request, response);
        if (opts.adjacent)
            mismatches +=
                compareCold(latency_request, latency_response);
        double cold_ms = msSince(cold_start);
        std::printf("cold runs:    %.1f ms for the same queries "
                    "(independent optimizations)\n",
                    cold_ms);
        std::printf("speedup:      %.1fx, designs %s\n",
                    cold_ms / warm_ms,
                    mismatches == 0 ? "bit-identical"
                                    : "MISMATCHED (bug!)");
        if (mismatches != 0)
            return 1;
    }

    if (opts.csvFile && csv.writeFile(*opts.csvFile))
        std::printf("full series written to %s\n",
                    opts.csvFile->c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        auto opts = parseArgs(argc, argv);
        if (!opts)
            return 0;
        return runTool(*opts);
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "dse-sweep: %s\n", err.what());
        return 1;
    }
}
