/**
 * @file
 * The persistent frontier cache must trade only process-start warmth,
 * never correctness: designs answered from a cache-warm process diff
 * byte for byte against cold runs (fixed and random networks), and
 * every way the segment can be wrong — truncated, bit-rotted, stale
 * layout version, stale model fingerprint, an older image restored,
 * concurrent writers — must degrade to a cold build: never a crash,
 * never different bytes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dse_request.h"
#include "core/frontier_cache.h"
#include "core/frontier_codec.h"
#include "core/session_registry.h"
#include "nn/zoo.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "test_helpers.h"
#include "util/math.h"
#include "util/shm.h"
#include "util/string_utils.h"

namespace mclp {
namespace {

namespace fs = std::filesystem;

/** A fresh cache directory, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    ScratchDir()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
               ("mclp_frontier_cache_" + std::to_string(::getpid()) +
                "_" + std::to_string(counter++));
        fs::create_directories(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    std::string dir() const { return path.string(); }

    std::string segmentFile() const
    {
        return (path / core::kFrontierSegmentFileName).string();
    }
};

/** Wire-encode a request answered through a cache-backed registry. */
std::string
cachedResponse(const std::string &line, const std::string &cache_dir)
{
    auto cache = std::make_shared<core::FrontierCache>(cache_dir);
    core::SessionRegistry registry(4, 0, 1, cache);
    core::DseRequest request = service::decodeRequest(line);
    return service::encodeResponse(
        service::answerRequest(request, &registry));
    // Registry destruction flushes the cache.
}

std::string
coldResponse(const std::string &line)
{
    core::DseRequest request = service::decodeRequest(line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
}

TEST(FrontierCache, DiskWarmMatchesColdByteForByte)
{
    ScratchDir scratch;
    std::vector<std::string> requests{
        "dse id=a net=alexnet device=690t budgets=500,1000,2880",
        "dse id=s net=squeezenet device=690t type=fixed mhz=170 "
        "budgets=1000,2880",
        "dse id=l net=alexnet budgets=500,2000 mode=latency",
    };
    for (const std::string &line : requests) {
        std::string cold = coldResponse(line);
        // Populating pass (cold cache) and disk-warm pass (fresh
        // FrontierCache instance, fresh registry, fresh sessions —
        // only the directory survives) must both match cold bytes.
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
    }

    // The warm pass really came from the persistent tier. A fresh
    // cache maps the segment the earlier flushes published — the one
    // cache file next to the lock — and hits stream from the mapping
    // on demand.
    std::set<std::string> files;
    for (const auto &entry : fs::directory_iterator(scratch.path))
        files.insert(entry.path().filename().string());
    EXPECT_EQ(files, (std::set<std::string>{core::kFrontierSegmentFileName,
                                            core::kFrontierCacheLockName}));
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    core::FrontierCache::Stats before = cache->stats();
    EXPECT_TRUE(before.loadedClean);
    EXPECT_TRUE(before.segmentMapped);
    EXPECT_GT(before.segmentEntries, 0u);
    EXPECT_EQ(before.rowHits, 0u);  // lazy: nothing decoded at open
    {
        core::SessionRegistry registry(4, 0, 1, cache);
        core::DseRequest request = service::decodeRequest(requests[0]);
        service::answerRequest(request, &registry);
        // The store's own accounting sees the same mmap hits (this is
        // what the cache-stats verb reports as row_mmap_hits).
        EXPECT_GT(registry.rowStore()->stats().mmapHits, 0u);
    }
    core::FrontierCache::Stats after = cache->stats();
    EXPECT_GT(after.rowHits, 0u);
    EXPECT_GT(after.traceHits, 0u);
    EXPECT_GT(after.segmentRowHits, 0u);
    EXPECT_GT(after.segmentTraceHits, 0u);
}

TEST(FrontierCache, DiskWarmMatchesColdOnRandomNetworks)
{
    util::SplitMix64 rng(20170627);
    for (int trial = 0; trial < 3; ++trial) {
        ScratchDir scratch;
        std::vector<std::string> layer_specs;
        int count = static_cast<int>(rng.nextInt(3, 6));
        for (int i = 0; i < count; ++i) {
            layer_specs.push_back(util::strprintf(
                "L%d:%lld:%lld:%lld:%lld:3:1", i,
                static_cast<long long>(rng.nextInt(1, 64)),
                static_cast<long long>(rng.nextInt(1, 64)),
                static_cast<long long>(rng.nextInt(3, 14)),
                static_cast<long long>(rng.nextInt(3, 14))));
        }
        std::string line = util::strprintf(
            "dse id=r%d net=rand layers=%s budgets=%lld,%lld "
            "maxclps=3%s",
            trial, util::join(layer_specs, ";").c_str(),
            static_cast<long long>(rng.nextInt(100, 900)),
            static_cast<long long>(rng.nextInt(900, 2400)),
            trial % 2 == 1 ? " type=fixed" : "");
        std::string cold = coldResponse(line);
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
    }
}

/** Populate a cache directory with one AlexNet ladder. */
std::string
populate(const ScratchDir &scratch)
{
    std::string line =
        "dse id=p net=alexnet device=690t budgets=500,1500";
    std::string cold = coldResponse(line);
    EXPECT_EQ(cachedResponse(line, scratch.dir()), cold);
    EXPECT_TRUE(fs::exists(scratch.segmentFile()));
    return cold;
}

TEST(FrontierCache, TruncatedFileFallsBackToColdBuild)
{
    // A damaged image starts wholly cold — no valid prefix is kept —
    // and says so (loadedClean is what cache-stats reports as clean).
    ScratchDir scratch;
    std::string cold = populate(scratch);
    fs::resize_file(scratch.segmentFile(),
                    fs::file_size(scratch.segmentFile()) / 2);

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_FALSE(cache->stats().loadedClean);
    EXPECT_FALSE(cache->stats().segmentMapped);
    core::SessionRegistry registry(4, 0, 1, cache);
    core::DseRequest request = service::decodeRequest(
        "dse id=p net=alexnet device=690t budgets=500,1500");
    EXPECT_EQ(service::encodeResponse(
                  service::answerRequest(request, &registry)),
              cold);
}

TEST(FrontierCache, CorruptPayloadByteFallsBackToColdBuild)
{
    ScratchDir scratch;
    std::string cold = populate(scratch);
    {
        // Flip a byte deep in the file: the image checksum catches it.
        std::FILE *file =
            std::fopen(scratch.segmentFile().c_str(), "r+b");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fseek(file, -40, SEEK_END), 0);
        int byte = std::fgetc(file);
        ASSERT_EQ(std::fseek(file, -1, SEEK_CUR), 0);
        std::fputc(byte ^ 0x5a, file);
        std::fclose(file);
    }
    EXPECT_FALSE(core::FrontierCache(scratch.dir()).stats().loadedClean);
    EXPECT_EQ(cachedResponse(
                  "dse id=p net=alexnet device=690t budgets=500,1500",
                  scratch.dir()),
              cold);
}

/** Publish a one-record segment whose header says @p magic,
 * @p version and @p fingerprint (the checksum is resealed, so the
 * header is the image's only defect). */
void
writeSegmentWithHeader(const std::string &path, uint64_t magic,
                       uint32_t version, uint64_t fingerprint)
{
    // One garbage record: it must never be read under a bad header.
    std::vector<int64_t> key = {-7};
    std::string image = core::FrontierCacheSegment::build(
        fingerprint, 1, {{core::kCacheRecordRow, &key, "bogus"}});
    for (size_t i = 0; i < 8; ++i)
        image[i] = static_cast<char>(magic >> (8 * i));
    for (size_t i = 0; i < 4; ++i)
        image[8 + i] = static_cast<char>(version >> (8 * i));
    uint64_t sum = core::FrontierCacheSegment::checksum(image);
    for (size_t i = 0; i < 8; ++i)
        image[56 + i] = static_cast<char>(sum >> (8 * i));
    ASSERT_TRUE(util::publishFileAtomic(path, image));
}

TEST(FrontierCache, FlippedGenerationBitStartsColdAndUnclean)
{
    // The generation stamp is under the checksum: one flipped bit
    // refuses the whole image (an unclean cold start, reported as
    // clean=0), and the answers still match cold runs byte for byte.
    ScratchDir scratch;
    std::string cold = populate(scratch);
    {
        std::FILE *file =
            std::fopen(scratch.segmentFile().c_str(), "r+b");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fseek(file, 24, SEEK_SET), 0);
        int byte = std::fgetc(file);
        ASSERT_EQ(std::fseek(file, 24, SEEK_SET), 0);
        std::fputc(byte ^ 0x01, file);
        std::fclose(file);
    }
    core::SegmentOpen status = core::SegmentOpen::Mapped;
    EXPECT_FALSE(core::FrontierCacheSegment::open(
                     scratch.segmentFile(),
                     core::modelFormulaFingerprint(), &status)
                     .valid());
    EXPECT_EQ(status, core::SegmentOpen::Damaged);

    service::ServiceOptions options;
    options.cacheDir = scratch.dir();
    service::DseService service(options);
    std::string stats = service.handleLine("cache-stats");
    EXPECT_NE(stats.find(" clean=0"), std::string::npos) << stats;
    EXPECT_EQ(service.handleLine(
                  "dse id=p net=alexnet device=690t budgets=500,1500"),
              cold);
}

TEST(FrontierCache, WrongVersionOrFingerprintIsIgnoredWholesale)
{
    for (int variant = 0; variant < 3; ++variant) {
        ScratchDir scratch;
        uint64_t magic = core::kFrontierSegmentMagic;
        uint32_t version = core::kFrontierSegmentVersion;
        uint64_t fingerprint = core::modelFormulaFingerprint();
        if (variant == 0)
            version += 1;
        else if (variant == 1)
            fingerprint ^= 1;
        else
            magic ^= 0xff;
        writeSegmentWithHeader(scratch.segmentFile(), magic, version,
                               fingerprint);

        auto cache =
            std::make_shared<core::FrontierCache>(scratch.dir());
        EXPECT_FALSE(cache->stats().segmentMapped);
        EXPECT_EQ(cache->loadRow({-7}), nullptr);
        // A stale header is an *expected* invalidation, not damage —
        // except the wrong-magic case, which is not our file at all.
        if (variant != 2) {
            EXPECT_TRUE(cache->stats().loadedClean);
        }

        // The stale file is replaced by a valid one on flush.
        std::string line =
            "dse id=v net=alexnet device=690t budgets=500";
        std::string cold = coldResponse(line);
        {
            core::SessionRegistry registry(4, 0, 1, cache);
            core::DseRequest request = service::decodeRequest(line);
            EXPECT_EQ(service::encodeResponse(
                          service::answerRequest(request, &registry)),
                      cold);
        }
        auto reloaded =
            std::make_shared<core::FrontierCache>(scratch.dir());
        EXPECT_TRUE(reloaded->stats().loadedClean);
        // The flush replaced the refused image with a valid one.
        EXPECT_TRUE(reloaded->stats().segmentMapped);
        EXPECT_GT(reloaded->stats().segmentEntries, 0u);
    }
}

TEST(FrontierCache, ConcurrentWritersMergeInsteadOfClobbering)
{
    ScratchDir scratch;
    // Two cache instances on one directory (two CLIs), each learning
    // a different network, flushing in either order: both contribute.
    std::string alexnet_line =
        "dse id=a net=alexnet device=690t budgets=800";
    std::string squeeze_line =
        "dse id=s net=squeezenet device=690t budgets=800";
    std::string alexnet_cold = coldResponse(alexnet_line);
    std::string squeeze_cold = coldResponse(squeeze_line);

    auto cache_a = std::make_shared<core::FrontierCache>(scratch.dir());
    auto cache_b = std::make_shared<core::FrontierCache>(scratch.dir());
    std::thread writer_a([&] {
        core::SessionRegistry registry(4, 0, 1, cache_a);
        core::DseRequest request =
            service::decodeRequest(alexnet_line);
        EXPECT_EQ(service::encodeResponse(
                      service::answerRequest(request, &registry)),
                  alexnet_cold);
    });
    std::thread writer_b([&] {
        core::SessionRegistry registry(4, 0, 1, cache_b);
        core::DseRequest request =
            service::decodeRequest(squeeze_line);
        EXPECT_EQ(service::encodeResponse(
                      service::answerRequest(request, &registry)),
                  squeeze_cold);
    });
    writer_a.join();
    writer_b.join();

    // A third process sees the union, loads clean, and answers both
    // requests cache-warm with cold bytes. Whichever CLI flushed last
    // re-mapped the segment under the lock and merged, so the earlier
    // flush survives alongside it.
    auto merged = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(merged->stats().loadedClean);
    EXPECT_TRUE(merged->stats().segmentMapped);
    EXPECT_GT(merged->stats().segmentEntries, 0u);
    {
        core::SessionRegistry registry(4, 0, 1, merged);
        EXPECT_EQ(
            service::encodeResponse(service::answerRequest(
                service::decodeRequest(alexnet_line), &registry)),
            alexnet_cold);
        EXPECT_EQ(
            service::encodeResponse(service::answerRequest(
                service::decodeRequest(squeeze_line), &registry)),
            squeeze_cold);
    }
    EXPECT_GT(merged->stats().rowHits, 0u);
}

TEST(FrontierCache, StaircaseValidationRejectsCorruptRows)
{
    // A checksummed-but-nonsensical staircase must not become a
    // frontier.
    std::vector<core::FrontierPoint> increasing_cycles(2);
    increasing_cycles[0].shape = {2, 2};
    increasing_cycles[0].dsp = 10;
    increasing_cycles[0].cycles = 100;
    increasing_cycles[1].shape = {4, 4};
    increasing_cycles[1].dsp = 20;
    increasing_cycles[1].cycles = 200;  // must decrease
    EXPECT_FALSE(
        core::ShapeFrontier::fromPoints(increasing_cycles).has_value());

    std::vector<core::FrontierPoint> bad_shape(1);
    bad_shape[0].shape = {0, 4};
    bad_shape[0].dsp = 10;
    bad_shape[0].cycles = 100;
    EXPECT_FALSE(core::ShapeFrontier::fromPoints(bad_shape).has_value());

    std::vector<core::FrontierPoint> good(2);
    good[0].shape = {2, 2};
    good[0].dsp = 10;
    good[0].cycles = 200;
    good[1].shape = {4, 4};
    good[1].dsp = 20;
    good[1].cycles = 100;
    EXPECT_TRUE(core::ShapeFrontier::fromPoints(good).has_value());
}

TEST(FrontierCache, PinnedRowsAreExcludedFromEvictableBytes)
{
    // With a cache attached every row is pinned by the cache's memo
    // (decoded, flushed, or pending write-back), so eviction cannot free
    // it; the byte budget must therefore not count row payloads, or a
    // --max-bytes-mb server with --cache-dir would thrash sessions
    // forever against a floor it can never get under.
    ScratchDir scratch;
    std::string line = "dse id=p net=alexnet device=690t budgets=1500";

    size_t uncached_bytes;
    {
        core::SessionRegistry registry(4, 0, 1);
        service::answerRequest(service::decodeRequest(line), &registry);
        uncached_bytes = registry.rowStore()->memoryBytes();
    }
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    core::SessionRegistry registry(4, 0, 1, cache);
    service::answerRequest(service::decodeRequest(line), &registry);
    core::FrontierRowStore::Stats stats =
        registry.rowStore()->stats();
    EXPECT_GT(stats.rows, 0u);
    EXPECT_LT(registry.rowStore()->memoryBytes(), uncached_bytes)
        << "pinned staircase payloads must not count as evictable";
}

TEST(FrontierCache, FingerprintIsStableWithinAProcess)
{
    EXPECT_EQ(core::modelFormulaFingerprint(),
              core::modelFormulaFingerprint());
    EXPECT_NE(core::modelFormulaFingerprint(), 0u);
}

/** A small deterministic staircase (direct-cache tests below bypass
 * the optimizer entirely). */
std::shared_ptr<const core::ShapeFrontier>
makeRow(int seed, size_t count = 30)
{
    std::vector<core::FrontierPoint> points(count);
    for (size_t i = 0; i < count; ++i) {
        points[i].shape = {static_cast<int64_t>(1 + (seed + i) % 64),
                           static_cast<int64_t>(1 + (seed * 7 + i) % 64)};
        points[i].dsp = static_cast<int64_t>(10 + seed + i * 13);
        points[i].cycles =
            static_cast<int64_t>(100000 - seed - i * 17);
    }
    auto row = core::ShapeFrontier::fromPoints(std::move(points));
    EXPECT_TRUE(row.has_value());
    return std::make_shared<const core::ShapeFrontier>(
        std::move(*row));
}

std::string
readFileBytes(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    std::string bytes;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, file)) > 0)
        bytes.append(buf, got);
    std::fclose(file);
    return bytes;
}

TEST(FrontierCache, ByteBudgetEvictsTheLeastRecentlyHitRecords)
{
    ScratchDir scratch;
    std::vector<std::vector<int64_t>> keys;
    for (int i = 0; i < 20; ++i)
        keys.push_back({i, 100 + i, 200 + i});
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        for (int i = 0; i < 20; ++i)
            cache->noteRow(keys[i], makeRow(i));
        ASSERT_TRUE(cache->flush());
    }
    size_t full_bytes = fs::file_size(scratch.segmentFile());

    // A budgeted process hits five records, learns one new row, and
    // flushes: the rewrite must fit the budget by evicting
    // least-recently-hit records — never the ones touched this
    // session, never the fresh one.
    core::FrontierCacheOptions budgeted;
    budgeted.maxBytes = full_bytes / 2;
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir(), budgeted);
        for (int i = 0; i < 5; ++i)
            ASSERT_NE(cache->loadRow(keys[i]), nullptr);
        cache->noteRow({999, 999, 999}, makeRow(99));
        ASSERT_TRUE(cache->flush());
        EXPECT_GE(cache->stats().evictedLastFlush, 5u);
        EXPECT_LE(fs::file_size(scratch.segmentFile()),
                  budgeted.maxBytes);
    }

    // The counters live in the image: the five hits were folded into
    // their records, stamped with the publishing generation.
    core::FrontierCacheSegment segment = core::FrontierCacheSegment::open(
        scratch.segmentFile(), core::modelFormulaFingerprint());
    ASSERT_TRUE(segment.valid());
    for (const core::SegmentEntry &entry : segment.entries()) {
        bool hot = entry.key[0] < 5;
        EXPECT_EQ(entry.hits, hot ? 1u : 0u) << entry.key[0];
        if (hot || entry.key[0] == 999)
            EXPECT_EQ(entry.lastGen, segment.generation());
        else
            EXPECT_LT(entry.lastGen, segment.generation());
    }

    // Survivors: all five hot keys and the fresh row; the evicted
    // cold keys answer null (a cold rebuild, not wrong bytes).
    auto reopened = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(reopened->stats().loadedClean);
    for (int i = 0; i < 5; ++i)
        EXPECT_NE(reopened->loadRow(keys[i]), nullptr) << i;
    EXPECT_NE(reopened->loadRow({999, 999, 999}), nullptr);
    size_t cold_survivors = 0;
    for (int i = 5; i < 20; ++i)
        if (reopened->loadRow(keys[i]) != nullptr)
            ++cold_survivors;
    EXPECT_LT(cold_survivors, 15u);
}

TEST(FrontierCache, CounterOnlyFlushLeavesTheFileUntouched)
{
    ScratchDir scratch;
    std::vector<int64_t> key = {4, 8, 15};
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(key, makeRow(1));
        ASSERT_TRUE(cache->flush());
    }
    std::string segment_before = readFileBytes(scratch.segmentFile());

    // Hits move counters, but counters alone never earn a publish:
    // the flush is a no-op and the segment keeps its exact bytes
    // (the deltas ride the next real publish).
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        for (int i = 0; i < 3; ++i)
            ASSERT_NE(cache->loadRow(key), nullptr);
        ASSERT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().flushes, 0u);
    }
    EXPECT_EQ(readFileBytes(scratch.segmentFile()), segment_before);

    // A real change still publishes (and bumps the generation), and
    // the hits scored before it ride along into the record's counter.
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        for (int i = 0; i < 2; ++i)
            ASSERT_NE(cache->loadRow(key), nullptr);
        cache->noteRow({16, 23, 42}, makeRow(2));
        ASSERT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().flushes, 1u);
        EXPECT_GE(cache->stats().generation, 2u);
    }
    EXPECT_NE(readFileBytes(scratch.segmentFile()), segment_before);
    core::FrontierCacheSegment segment = core::FrontierCacheSegment::open(
        scratch.segmentFile(), core::modelFormulaFingerprint());
    ASSERT_EQ(segment.entryCount(), 2u);
    for (const core::SegmentEntry &entry : segment.entries())
        EXPECT_EQ(entry.hits, entry.key == key ? 2u : 0u);
}

TEST(FrontierCache, OlderSegmentRestoredOverANewerOneServesItsRecords)
{
    // A restored backup (or any older image put back over the current
    // one) is a complete, valid image: it serves exactly its own
    // records, the rows only the newer image held rebuild cold, and
    // the next flush publishes past both generations.
    ScratchDir scratch;
    std::vector<int64_t> old_key = {1, 2, 3};
    std::vector<int64_t> new_key = {7, 8, 9};
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(old_key, makeRow(3));
        ASSERT_TRUE(cache->flush());
    }
    std::string old_segment = readFileBytes(scratch.segmentFile());
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(new_key, makeRow(4));
        ASSERT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().generation, 2u);
    }
    ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(),
                                        old_segment));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    EXPECT_TRUE(cache->stats().segmentMapped);
    EXPECT_EQ(cache->stats().generation, 1u);
    core::CacheTier tier = core::CacheTier::None;
    auto row = cache->loadRow(old_key, &tier);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(tier, core::CacheTier::Mmap);
    EXPECT_EQ(row->size(), makeRow(3)->size());
    EXPECT_EQ(cache->loadRow(new_key, &tier), nullptr);
    EXPECT_EQ(tier, core::CacheTier::None);

    cache->noteRow(new_key, makeRow(4));
    ASSERT_TRUE(cache->flush());
    auto healed = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(healed->stats().segmentMapped);
    EXPECT_EQ(healed->stats().segmentEntries, 2u);
    EXPECT_EQ(healed->stats().generation, 2u);
}

TEST(FrontierCache, LeftoverPublishTempFileIsIgnored)
{
    // A publish killed before its rename leaves "<segment>.tmp"
    // behind. Readers never look at it, and the next publish
    // overwrites it.
    ScratchDir scratch;
    std::string cold = populate(scratch);
    std::string tmp = scratch.segmentFile() + ".tmp";
    {
        std::FILE *file = std::fopen(tmp.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        std::string half = readFileBytes(scratch.segmentFile());
        half.resize(half.size() / 2);
        std::fwrite(half.data(), 1, half.size(), file);
        std::fclose(file);
    }
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    EXPECT_TRUE(cache->stats().segmentMapped);
    EXPECT_EQ(cachedResponse(
                  "dse id=p net=alexnet device=690t budgets=500,1500",
                  scratch.dir()),
              cold);
    cache->noteRow({5, 5, 5}, makeRow(5));
    ASSERT_TRUE(cache->flush());
    EXPECT_FALSE(fs::exists(tmp));
}

TEST(FrontierCache, FlushLeavesOnlyTheSegmentAndTheLock)
{
    // A record file left by an earlier version is never read, and
    // the first real flush removes it.
    ScratchDir scratch;
    std::string retired =
        (scratch.path / core::kFrontierCacheFileName).string();
    ASSERT_TRUE(util::publishFileAtomic(retired, "old record file"));
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    cache->noteRow({1, 1, 1}, makeRow(1));
    ASSERT_TRUE(cache->flush());
    std::set<std::string> files;
    for (const auto &entry : fs::directory_iterator(scratch.path))
        files.insert(entry.path().filename().string());
    EXPECT_EQ(files, (std::set<std::string>{core::kFrontierSegmentFileName,
                                            core::kFrontierCacheLockName}));
}

} // namespace
} // namespace mclp
