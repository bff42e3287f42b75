/**
 * @file
 * Cap-growth benchmark: what a warm session pays to climb the Figure-7
 * DSP ladder one rung per request, against asking the top rung alone.
 *
 * For each of eight sessions (AlexNet, SqueezeNet, GoogLeNet and
 * MobileNet-v1, float and fixed, on the 690T) two fresh registries
 * answer:
 *
 *   climb  eleven single-budget requests, 100 ... 3500 DSP, in order;
 *          every one raises the session's units cap, so every one
 *          grows the frontier rows it touches;
 *   top    the 3500-DSP request alone.
 *
 * Reported per session, best of --reps runs: frontier_build
 * milliseconds (the util/prof.h self time) and the thread's CPU
 * milliseconds for the whole run. Every climb response must be
 * byte-identical to a cold, registry-free answer of the same line;
 * the exit code enforces it. The numbers land in BENCH_optimizer.json
 * under "cap_growth".
 *
 *   ./build/cap_growth [--reps N]
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/session_registry.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "util/flags.h"
#include "util/prof.h"

namespace {

using namespace mclp;

const std::vector<int> kFigure7{100,  250,  500,  750,  1000, 1500,
                                2000, 2240, 2500, 2880, 3500};

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Cost
{
    double frontierMs = 0;
    double cpuMs = 0;
};

/** Answer @p lines in order through one fresh registry. */
Cost
answerAll(const std::vector<std::string> &lines,
          std::vector<std::string> *responses)
{
    core::SessionRegistry registry;
    util::prof::reset();
    double cpu_start = threadCpuMs();
    for (const std::string &line : lines) {
        std::string response = service::encodeResponse(
            service::answerRequest(service::decodeRequest(line),
                                   &registry));
        if (responses)
            responses->push_back(std::move(response));
    }
    Cost cost;
    cost.cpuMs = threadCpuMs() - cpu_start;
    cost.frontierMs =
        static_cast<double>(
            util::prof::snapshot()[static_cast<size_t>(
                                       util::prof::Phase::FrontierBuild)]
                .ns) /
        1e6;
    return cost;
}

Cost
bestOf(int reps, const std::vector<std::string> &lines)
{
    Cost best{1e300, 1e300};
    for (int r = 0; r < reps; ++r) {
        Cost cost = answerAll(lines, nullptr);
        best.frontierMs = std::min(best.frontierMs, cost.frontierMs);
        best.cpuMs = std::min(best.cpuMs, cost.cpuMs);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<int>(
                util::parseIntFlag("--reps", argv[++i], 1, 100));
        } else {
            std::fprintf(stderr, "usage: cap_growth [--reps N]\n");
            return 2;
        }
    }
    bench::printBenchHeader(
        "Cap growth: an 11-rung Figure-7 climb vs the top rung alone",
        "Figure 7 DSP ladder (100 ... 3500 DSP), warm sessions");
    util::prof::setEnabled(true);

    std::printf("%-13s %-6s %14s %14s %12s %12s\n", "network", "type",
                "climb build", "top build", "climb cpu", "top cpu");
    Cost climb_total, top_total;
    bool identical = true;
    for (const char *net :
         {"alexnet", "squeezenet", "googlenet", "mobilenet-v1"}) {
        for (const char *type : {"float", "fixed"}) {
            auto line = [&](int dsp) {
                return std::string("dse id=r") + std::to_string(dsp) +
                       " net=" + net + " device=690t type=" + type +
                       " budgets=" + std::to_string(dsp);
            };
            std::vector<std::string> climb;
            for (int dsp : kFigure7)
                climb.push_back(line(dsp));

            std::vector<std::string> warm;
            answerAll(climb, &warm);
            for (size_t k = 0; k < climb.size(); ++k) {
                std::string cold = service::encodeResponse(
                    service::answerRequest(
                        service::decodeRequest(climb[k]), nullptr));
                if (warm[k] != cold) {
                    std::printf("MISMATCH: %s\n", climb[k].c_str());
                    identical = false;
                }
            }

            Cost c = bestOf(reps, climb);
            Cost t = bestOf(reps, {line(kFigure7.back())});
            std::printf("%-13s %-6s %11.1f ms %11.1f ms %9.1f ms "
                        "%9.1f ms\n",
                        net, type, c.frontierMs, t.frontierMs, c.cpuMs,
                        t.cpuMs);
            climb_total.frontierMs += c.frontierMs;
            climb_total.cpuMs += c.cpuMs;
            top_total.frontierMs += t.frontierMs;
            top_total.cpuMs += t.cpuMs;
        }
    }
    std::printf("%-20s %11.1f ms %11.1f ms %9.1f ms %9.1f ms\n", "total",
                climb_total.frontierMs, top_total.frontierMs,
                climb_total.cpuMs, top_total.cpuMs);
    std::printf("climb / top frontier_build: %.2fx\n",
                climb_total.frontierMs / top_total.frontierMs);
    if (!identical) {
        std::printf("FAIL: warm climb answers differ from cold runs\n");
        return 1;
    }
    std::printf("every climb answer is byte-identical to a cold run\n");
    return 0;
}
