/**
 * @file
 * In-process side of the serving benchmark (perfbench/run.py).
 *
 *   perfbench-trace refs < LINES > RESPONSES
 *     Cold reference answers: every request line answered by
 *     service::answerRequest with no registry (independent cold
 *     MultiClpOptimizer runs, one thread each, the same path as
 *     `mclp-opt --response`), one line per hardware thread at a time,
 *     printed in input order. Every response the benchmark receives is
 *     byte-compared to these.
 *
 *   perfbench-trace trace --mode cold|warm|cache --requests FILE
 *                   --expect FILE [--setup FILE] [--spans FILE]
 *                   [--cache-a DIR --cache-b DIR --cache-c DIR]
 *     The traced run: drives a workload's request sequence through
 *     the library's public entry points and records one span around
 *     each call (decodeRequest, SessionRegistry::session,
 *     DseSession::optimize/sweep, encodeResponse,
 *     DseService::handleLine, and the FrontierCache constructor,
 *     loadRow and flush). Spans are kept in memory and written to
 *     --spans at the end; the per-layer summary is printed as one JSON
 *     object. The util/prof.h phase self-times are read as snapshot
 *     deltas around the traced pass. No timing code runs inside the
 *     library beyond what it already has.
 *
 * Modes: `cold` answers each rung with a fresh session (what one
 * `mclp-opt` process does), `warm` sends every line through one
 * long-lived registry (what one `mclp-serve` does), `cache` is `warm`
 * with a registry attached to a persistent cache restored from a
 * pre-filled copy (what a restarted `mclp-serve --cache-dir` does).
 * The three cache directories are pristine copies of one pre-filled
 * cache: A is opened and probed row by row, B backs the traced pass
 * and its flush, C backs the handleLine pass.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "core/dse_request.h"
#include "core/dse_session.h"
#include "core/frontier_cache.h"
#include "core/frontier_codec.h"
#include "core/schedule.h"
#include "core/session_registry.h"
#include "core/shape_frontier.h"
#include "model/bram_model.h"
#include "model/dsp_model.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "util/logging.h"
#include "util/prof.h"

using namespace mclp;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name;
    int64_t start;
    int64_t end;
    int parent;   ///< index into the span list, -1 for a root
    int request;  ///< request id (input line index), -1 for none
};

/** In-memory span recorder; written out once, at the end. */
class Trace
{
  public:
    int open(const char *name, int parent, int request)
    {
        spans_.push_back({name, nowNs(), 0, parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[id].end = nowNs(); }

    /** Durations (µs) of every closed span named @p name. */
    std::vector<double> durationsUs(const char *name) const
    {
        std::vector<double> out;
        for (const Span &span : spans_)
            if (std::strcmp(span.name, name) == 0)
                out.push_back((span.end - span.start) / 1e3);
        return out;
    }

    void write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Span &span : spans_)
            out << "{\"name\":\"" << span.name << "\",\"start_ns\":"
                << span.start << ",\"end_ns\":" << span.end
                << ",\"parent\":" << span.parent << ",\"request\":"
                << span.request << "}\n";
    }

  private:
    std::vector<Span> spans_;
};

/** Times one call as a span of @p trace. */
template <typename Fn>
auto
traced(Trace &trace, const char *name, int parent, int request, Fn &&fn)
{
    int id = trace.open(name, parent, request);
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        trace.close(id);
    } else {
        auto result = fn();
        trace.close(id);
        return result;
    }
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double value : values)
        total += value;
    return total;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    if (path.empty())
        return lines;
    std::ifstream in(path);
    if (!in)
        util::fatal("perfbench-trace: cannot read %s", path.c_str());
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

int64_t
fileBytes(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
}

/**
 * Row keys of a published cache segment, read from its slot table
 * (layout in src/core/frontier_cache_segment.cc: 64-byte header with
 * the slot count at byte 12, then 24-byte slots of u64 hash | u32 key
 * offset in words | u32 kind<<24|key words | u32 payload offset | u32
 * payload length, then the key blob). The benchmark needs real keys
 * to time FrontierCache::loadRow from the outside.
 */
std::vector<std::vector<int64_t>>
segmentRowKeys(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string image((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::vector<std::vector<int64_t>> keys;
    auto u32 = [&](size_t off) {
        uint32_t v = 0;
        std::memcpy(&v, image.data() + off, sizeof v);
        return v;
    };
    if (image.size() < 64)
        return keys;
    uint32_t slots = u32(12);
    size_t key_off = 64 + size_t{slots} * 24;
    if (key_off > image.size())
        return keys;
    for (uint32_t s = 0; s < slots; ++s) {
        size_t slot = 64 + size_t{s} * 24;
        uint32_t kind_words = u32(slot + 12);
        if (kind_words == 0 || (kind_words >> 24) != core::kCacheRecordRow)
            continue;
        size_t words = kind_words & 0xFFFFFF;
        size_t at = key_off + size_t{u32(slot + 8)} * 8;
        if (at + words * 8 > image.size())
            return {};
        std::vector<int64_t> key(words);
        std::memcpy(key.data(), image.data() + at, words * 8);
        keys.push_back(std::move(key));
    }
    return keys;
}

/** answerRequest with no registry on every hardware thread, input
 * order kept. */
int
runRefs()
{
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(std::cin, line))
        lines.push_back(line);
    std::vector<std::string> out(lines.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i; (i = next.fetch_add(1)) < lines.size();) {
            try {
                core::DseRequest request = service::decodeRequest(lines[i]);
                request.threads = 1;
                out[i] = service::encodeResponse(
                    service::answerRequest(request, nullptr));
            } catch (const std::exception &err) {
                // A line the codec rejects has no reference; the error
                // text can never equal a server answer.
                out[i] = std::string("perfbench-trace: ") + err.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::thread::hardware_concurrency(); ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &thread : pool)
        thread.join();
    for (const std::string &response : out)
        std::printf("%s\n", response.c_str());
    return 0;
}

/** The benchmark-side counterpart of answerRequest, one span per
 * layer call. @p registry null = cold: each rung is optimized by a
 * fresh session with a fresh row store, as one mclp-opt process does. */
std::string
answerTraced(Trace &trace, const std::string &line, int request,
             core::SessionRegistry *registry,
             core::FrontierRowStore::Stats *cold_rows)
{
    int root = trace.open("request", -1, request);
    core::DseRequest decoded = traced(trace, "decodeRequest", root, request,
                                      [&] { return service::decodeRequest(line); });
    core::DseResponse response;
    response.id = decoded.id.empty() ? "-" : decoded.id;
    decoded.validate();
    nn::Network network = core::resolveNetwork(decoded, &response.subnets);
    response.network = network.name();
    std::vector<fpga::ResourceBudget> budgets = core::requestBudgets(decoded);
    core::OptimizerOptions options = core::requestOptions(decoded);

    std::vector<core::OptimizationResult> results;
    std::shared_ptr<core::DseSession> session;
    const nn::Network *result_network = &network;
    if (registry) {
        int64_t max_dsp = 0;
        for (const fpga::ResourceBudget &budget : budgets)
            max_dsp = std::max(max_dsp, budget.dspSlices);
        session = traced(trace, "SessionRegistry::session", root, request, [&] {
            return registry->session(network, decoded.device, decoded.type,
                                     max_dsp);
        });
        results = traced(trace, "DseSession::sweep", root, request,
                         [&] { return session->sweep(budgets, options); });
        result_network = &session->network();
    } else {
        for (const fpga::ResourceBudget &budget : budgets) {
            auto store = std::make_shared<core::FrontierRowStore>();
            core::DseSession fresh(network, decoded.type, 1, store);
            results.push_back(traced(trace, "DseSession::optimize", root,
                                     request, [&] {
                                         return fresh.optimize(budget, options);
                                     }));
            core::FrontierRowStore::Stats stats = store->stats();
            cold_rows->hits += stats.hits;
            cold_rows->misses += stats.misses;
        }
    }
    for (size_t i = 0; i < results.size(); ++i) {
        core::DsePoint point;
        point.budget = budgets[i];
        point.design =
            core::canonicalizeSchedule(results[i].design, *result_network);
        point.epochCycles = results[i].metrics.epochCycles;
        point.dspUsed = model::designDsp(point.design);
        point.bramUsed = model::designBram(point.design, *result_network);
        point.schedule = core::analyzeSchedule(point.design, *result_network);
        response.points.push_back(std::move(point));
    }
    response.ok = true;
    std::string wire = traced(trace, "encodeResponse", root, request,
                              [&] { return service::encodeResponse(response); });
    trace.close(root);
    return wire;
}

struct TraceArgs
{
    std::string mode = "warm";
    std::string requests, expect, setup, cacheA, cacheB, cacheC, spans;
};

int
runTrace(const TraceArgs &args)
{
    std::vector<std::string> lines = readLines(args.requests);
    std::vector<std::string> expect = readLines(args.expect);
    std::vector<std::string> setup = readLines(args.setup);
    if (expect.size() != lines.size())
        util::fatal("perfbench-trace: %zu requests but %zu expected lines",
                    lines.size(), expect.size());
    bool cold = args.mode == "cold";
    bool cache = args.mode == "cache";
    Trace trace;
    size_t mismatches = 0;
    util::prof::setEnabled(true);

    // Reference pass, untraced apart from one span per handleLine: the
    // service's own path on a fresh service. Its wall time is the base
    // of trace.overhead_pct. An untimed pass first warms the process
    // (allocator, code pages), so neither timed pass pays for that.
    {
        service::ServiceOptions options;
        options.cold = cold;
        service::DseService service(options);
        for (const std::string &line : setup)
            service.handleLine(line);
        for (const std::string &line : lines)
            service.handleLine(line);
    }
    double handle_wall_ms = 0.0;
    {
        service::ServiceOptions options;
        options.cold = cold;
        if (cache)
            options.cacheDir = args.cacheC;
        service::DseService service(options);
        for (const std::string &line : setup)
            service.handleLine(line);
        int64_t start = nowNs();
        for (size_t i = 0; i < lines.size(); ++i) {
            std::string got = traced(trace, "DseService::handleLine", -1,
                                     static_cast<int>(i),
                                     [&] { return service.handleLine(lines[i]); });
            mismatches += got != expect[i];
        }
        handle_wall_ms = (nowNs() - start) / 1e6;
    }

    // Persistent cache: open and per-row loads on one pristine copy,
    // then a second pristine copy backs the traced pass below.
    std::vector<std::vector<int64_t>> row_keys;
    std::shared_ptr<core::FrontierCache> pass_cache;
    if (cache) {
        auto probe = traced(trace, "FrontierCache::FrontierCache", -1, -1, [&] {
            return std::make_shared<core::FrontierCache>(args.cacheA);
        });
        row_keys = segmentRowKeys(args.cacheA + "/" +
                                  core::kFrontierSegmentFileName);
        for (const std::vector<int64_t> &key : row_keys)
            traced(trace, "FrontierCache::loadRow", -1, -1,
                   [&] { probe->loadRow(key); });
        pass_cache = traced(trace, "FrontierCache::FrontierCache", -1, -1, [&] {
            return std::make_shared<core::FrontierCache>(args.cacheB);
        });
    }

    std::unique_ptr<core::SessionRegistry> registry;
    if (!cold)
        registry = std::make_unique<core::SessionRegistry>(8, 0, 1, pass_cache);
    core::FrontierRowStore::Stats cold_rows;
    for (const std::string &line : setup)
        answerTraced(trace, line, -1, registry.get(), &cold_rows);
    core::SessionRegistry::Stats reg_before;
    core::FrontierRowStore::Stats rows_before = cold_rows;
    if (registry) {
        reg_before = registry->stats();
        rows_before = registry->rowStore()->stats();
    }
    auto prof_before = util::prof::snapshot();
    int64_t start = nowNs();
    for (size_t i = 0; i < lines.size(); ++i) {
        std::string got = answerTraced(trace, lines[i], static_cast<int>(i),
                                       registry.get(), &cold_rows);
        mismatches += got != expect[i];
    }
    double traced_wall_ms = (nowNs() - start) / 1e6;
    auto prof_after = util::prof::snapshot();
    core::FrontierRowStore::Stats rows_after =
        registry ? registry->rowStore()->stats() : cold_rows;
    core::SessionRegistry::Stats reg_after;
    if (registry)
        reg_after = registry->stats();

    double flush_ms = 0.0;
    int64_t flush_bytes = 0;
    if (cache) {
        traced(trace, "FrontierCache::flush", -1, -1,
               [&] { pass_cache->flush(); });
        flush_ms = trace.durationsUs("FrontierCache::flush").back() / 1e3;
        // A committing flush rewrites both files whole (tmp + rename).
        if (pass_cache->stats().flushes > 0)
            flush_bytes =
                fileBytes(args.cacheB + "/" + core::kFrontierCacheFileName) +
                fileBytes(args.cacheB + "/" + core::kFrontierSegmentFileName);
    }

    double n = std::max<size_t>(lines.size(), 1);
    auto phase_ms = [&](util::prof::Phase phase) {
        size_t p = static_cast<size_t>(phase);
        return (prof_after[p].ns - prof_before[p].ns) / 1e6;
    };
    double rows_built = double(rows_after.misses - rows_before.misses);
    double row_hits = double(rows_after.hits - rows_before.hits);
    double acquisitions =
        double((reg_after.hits - reg_before.hits) +
               (reg_after.misses - reg_before.misses));
    double response_bytes = 0.0;
    for (const std::string &line : expect)
        response_bytes += line.size();
    const char *compute = cold ? "DseSession::optimize" : "DseSession::sweep";
    std::vector<double> compute_us = trace.durationsUs(compute);
    // Cold requests are timed per rung; sum back to one per request.
    double optimize_ms = sum(compute_us) / 1e3 / n;
    double tier_total = double(rows_after.hits - rows_before.hits) +
                        double(rows_after.misses - rows_before.misses);

    std::printf(
        "{\"requests\": %zu, \"mismatches\": %zu, "
        "\"frontier.build_ms_per_request\": %.6f, "
        "\"frontier.rows_built_per_request\": %.6f, "
        "\"frontier.row_hit_ratio\": %.6f, "
        "\"optimizer.query_ms_per_request\": %.6f, "
        "\"optimizer.optimize_ms\": %.6f, "
        "\"memory.tiling_enum_ms_per_request\": %.6f, "
        "\"memory.walk_ms_per_request\": %.6f, "
        "\"registry.acquire_us\": %.3f, \"registry.hit_ratio\": %.6f, "
        "\"registry.evictions\": %zu, "
        "\"codec.decode_us\": %.3f, \"codec.encode_us\": %.3f, "
        "\"codec.response_bytes\": %.1f, "
        "\"service.handle_line_us.p50\": %.3f, "
        "\"cache.open_ms\": %.6f, \"cache.load_row_us\": %.3f, "
        "\"cache.flush_ms\": %.6f, \"cache.flush_bytes\": %lld, "
        "\"cache.tier_mmap_share\": %.6f, \"cache.tier_cold_share\": %.6f, "
        "\"handle_wall_ms\": %.3f, \"traced_wall_ms\": %.3f}\n",
        lines.size(), mismatches, phase_ms(util::prof::Phase::FrontierBuild) / n,
        rows_built / n, tier_total > 0 ? row_hits / tier_total : 0.0,
        phase_ms(util::prof::Phase::FrontierQuery) / n, optimize_ms,
        phase_ms(util::prof::Phase::TilingEnum) / n,
        phase_ms(util::prof::Phase::MemoryWalk) / n,
        median(trace.durationsUs("SessionRegistry::session")),
        acquisitions > 0 ? double(reg_after.hits - reg_before.hits) / acquisitions
                         : 0.0,
        reg_after.evictions - reg_before.evictions,
        median(trace.durationsUs("decodeRequest")),
        median(trace.durationsUs("encodeResponse")), response_bytes / n,
        median(trace.durationsUs("DseService::handleLine")),
        cache ? median(trace.durationsUs("FrontierCache::FrontierCache")) / 1e3
              : 0.0,
        median(trace.durationsUs("FrontierCache::loadRow")),
        flush_ms, static_cast<long long>(flush_bytes),
        tier_total > 0 ? double(rows_after.mmapHits - rows_before.mmapHits) /
                             tier_total
                       : 0.0,
        cache && tier_total > 0 ? rows_built / tier_total : 0.0,
        handle_wall_ms, traced_wall_ms);
    if (!args.spans.empty())
        trace.write(args.spans);
    return mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::fprintf(stderr, "usage: perfbench-trace refs|trace [options]\n");
        return 2;
    }
    auto value = [&](size_t &i) {
        if (i + 1 >= args.size())
            util::fatal("perfbench-trace: %s needs a value", args[i].c_str());
        return args[++i];
    };
    try {
        if (args[0] == "refs")
            return runRefs();
        if (args[0] == "trace") {
            TraceArgs t;
            for (size_t i = 1; i < args.size(); ++i) {
                const std::string &flag = args[i];
                if (flag == "--mode") t.mode = value(i);
                else if (flag == "--requests") t.requests = value(i);
                else if (flag == "--expect") t.expect = value(i);
                else if (flag == "--setup") t.setup = value(i);
                else if (flag == "--cache-a") t.cacheA = value(i);
                else if (flag == "--cache-b") t.cacheB = value(i);
                else if (flag == "--cache-c") t.cacheC = value(i);
                else if (flag == "--spans") t.spans = value(i);
                else util::fatal("perfbench-trace: unknown flag %s", flag.c_str());
            }
            return runTrace(t);
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench-trace: %s\n", err.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench-trace: unknown mode %s\n", args[0].c_str());
    return 2;
}
