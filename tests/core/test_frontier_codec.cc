/**
 * @file
 * The delta cache codec (core/frontier_codec.h) and the mmap'd
 * segment (core/frontier_cache_segment.h) are format code: every
 * guarantee here is a bit-level one. Delta payloads must round-trip
 * randomized staircases and walk traces exactly (the cache-warm ==
 * cold invariant rests on it), compact at least 2x against fixed-width
 * i64 lanes on realistic rows, and reject corrupt bytes; segment
 * images must serve identical views to independent mappings, keep
 * their counters, and degrade — never lie, never read outside the
 * mapping — when damaged or hostile.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/frontier_cache.h"
#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "util/math.h"
#include "util/record_file.h"
#include "util/shm.h"

namespace mclp {
namespace {

namespace fs = std::filesystem;

/** A random valid staircase: strictly increasing DSP, strictly
 * decreasing cycles, positive shapes. @p wide forces Tn/Tm past the
 * 16-bit fast lanes to exercise the wide-shape fallback. */
core::ShapeFrontier
randomStaircase(util::SplitMix64 &rng, bool wide = false)
{
    size_t count = static_cast<size_t>(rng.nextInt(1, 40));
    std::vector<core::FrontierPoint> points(count);
    int64_t dsp = rng.nextInt(1, 50);
    int64_t cycles = 1000000 + rng.nextInt(0, 1000) * count;
    for (size_t i = 0; i < count; ++i) {
        points[i].shape.tn =
            wide ? rng.nextInt(70000, 200000) : rng.nextInt(1, 512);
        points[i].shape.tm =
            wide ? rng.nextInt(70000, 200000) : rng.nextInt(1, 512);
        points[i].dsp = dsp;
        points[i].cycles = cycles;
        dsp += rng.nextInt(1, 400);
        cycles -= rng.nextInt(1, 900);
    }
    auto row = core::ShapeFrontier::fromPoints(std::move(points));
    EXPECT_TRUE(row.has_value());
    return std::move(*row);
}

/** A random valid walk trace: strictly decreasing total BRAM. */
core::FrontierTraceImage
randomTrace(util::SplitMix64 &rng, size_t key_groups)
{
    core::FrontierTraceImage image;
    image.complete = rng.nextInt(0, 1) != 0;
    image.initialBram = rng.nextInt(1000, 1 << 20);
    image.initialPeak = static_cast<double>(rng.nextInt(1, 1 << 30)) /
                        512.0;
    size_t steps = static_cast<size_t>(rng.nextInt(0, 30));
    int64_t bram = image.initialBram;
    for (size_t i = 0; i < steps && bram > 1; ++i) {
        core::TradeoffCurveCache::PartitionStep step;
        step.clp =
            static_cast<uint32_t>(rng.nextInt(0, key_groups - 1));
        step.inCap = rng.nextInt(0, 1 << 16);
        step.outCap = rng.nextInt(0, 1 << 16);
        bram -= rng.nextInt(1, std::max<int64_t>(bram / 4, 2));
        if (bram <= 0)
            break;
        step.totalBram = bram;
        step.totalPeak =
            static_cast<double>(rng.nextInt(1, 1 << 30)) / 256.0;
        image.steps.push_back(step);
    }
    return image;
}

TEST(FrontierCodec, RowPayloadRoundTripsRandomStaircases)
{
    util::SplitMix64 rng(20170701);
    for (int trial = 0; trial < 200; ++trial) {
        core::ShapeFrontier row = randomStaircase(rng, trial % 17 == 0);
        util::ByteWriter out;
        core::encodeRowPayload(out, row);
        auto decoded = core::decodeRowPayload(out.bytes());
        ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
        ASSERT_EQ(decoded->size(), row.size());
        for (size_t i = 0; i < row.size(); ++i) {
            EXPECT_EQ(decoded->point(i).shape, row.point(i).shape);
            EXPECT_EQ(decoded->point(i).dsp, row.point(i).dsp);
            EXPECT_EQ(decoded->point(i).cycles, row.point(i).cycles);
        }
    }
}

TEST(FrontierCodec, TracePayloadRoundTripsRandomWalks)
{
    util::SplitMix64 rng(20170702);
    for (int trial = 0; trial < 200; ++trial) {
        size_t groups = static_cast<size_t>(rng.nextInt(1, 6));
        core::FrontierTraceImage image = randomTrace(rng, groups);
        util::ByteWriter out;
        core::encodeTracePayload(out, image);

        core::FrontierTraceImage decoded;
        ASSERT_TRUE(
            core::decodeTracePayload(out.bytes(), groups, decoded));
        EXPECT_EQ(decoded.complete, image.complete);
        EXPECT_EQ(decoded.initialBram, image.initialBram);
        EXPECT_EQ(decoded.initialPeak, image.initialPeak);
        ASSERT_EQ(decoded.steps.size(), image.steps.size());
        for (size_t i = 0; i < image.steps.size(); ++i) {
            EXPECT_EQ(decoded.steps[i].clp, image.steps[i].clp);
            EXPECT_EQ(decoded.steps[i].inCap, image.steps[i].inCap);
            EXPECT_EQ(decoded.steps[i].outCap, image.steps[i].outCap);
            EXPECT_EQ(decoded.steps[i].totalBram,
                      image.steps[i].totalBram);
            EXPECT_EQ(decoded.steps[i].totalPeak,
                      image.steps[i].totalPeak);
        }

        bool complete = false;
        size_t steps = 0;
        ASSERT_TRUE(core::peekTraceMeta(out.bytes(), &complete, &steps));
        EXPECT_EQ(complete, image.complete);
        EXPECT_EQ(steps, image.steps.size());
    }
}

TEST(FrontierCodec, DeltaAtLeastHalvesTheLegacySoAEncoding)
{
    // The compaction claim on realistic rows: staircases whose lanes
    // move in the small steps real frontiers take. Both sides carry
    // the same segment framing (slots, keys, counters); the legacy
    // SoA side swaps each delta payload for its fixed-width size, a
    // u32 count plus four i64 lanes (4 B + 32 B per point).
    util::SplitMix64 rng(20170703);
    std::vector<std::vector<int64_t>> keys;
    std::vector<std::string> payloads;
    size_t legacy_payload_bytes = 0;
    for (int trial = 0; trial < 50; ++trial) {
        core::ShapeFrontier row = randomStaircase(rng);
        keys.push_back({rng.nextInt(1, 1 << 20), rng.nextInt(1, 1 << 20)});
        util::ByteWriter out;
        core::encodeRowPayload(out, row);
        payloads.push_back(out.bytes());
        legacy_payload_bytes += 4 + 32 * row.size();
    }
    std::vector<core::SegmentRecord> records;
    size_t delta_payload_bytes = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
        records.push_back({core::kCacheRecordRow, &keys[i], payloads[i]});
        delta_payload_bytes += payloads[i].size();
    }
    size_t delta_bytes =
        core::FrontierCacheSegment::build(1, 1, records).size();
    size_t legacy_bytes =
        delta_bytes - delta_payload_bytes + legacy_payload_bytes;
    EXPECT_GE(legacy_bytes, 2 * delta_bytes)
        << "delta encoding must stay at least 2x smaller than SoA "
        << "(legacy " << legacy_bytes << "B vs delta " << delta_bytes
        << "B)";
}

TEST(FrontierCodec, CorruptPayloadsAreRejectedNotMisdecoded)
{
    // Flipping any single byte of a row payload must yield either a
    // clean rejection or a *valid* staircase — never a crash — and
    // truncations must always reject (the payload length is part of
    // the format).
    util::SplitMix64 rng(20170705);
    core::ShapeFrontier row = randomStaircase(rng);
    util::ByteWriter out;
    core::encodeRowPayload(out, row);
    std::string good(out.bytes());

    for (size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x41);
        auto decoded = core::decodeRowPayload(bad);
        if (decoded.has_value()) {
            // A surviving decode must still satisfy the staircase
            // invariants (fromPoints re-validated them).
            for (size_t p = 1; p < decoded->size(); ++p) {
                EXPECT_GT(decoded->point(p).dsp,
                          decoded->point(p - 1).dsp);
                EXPECT_LT(decoded->point(p).cycles,
                          decoded->point(p - 1).cycles);
            }
        }
    }
    for (size_t cut = 0; cut < good.size(); ++cut)
        EXPECT_FALSE(
            core::decodeRowPayload(good.substr(0, cut)).has_value())
            << "truncation at " << cut;
}

/** A scratch segment path, removed on destruction. */
struct ScratchSegment
{
    fs::path path;

    ScratchSegment()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
               ("mclp_segment_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++) + ".seg");
    }

    ~ScratchSegment()
    {
        std::error_code ec;
        fs::remove(path, ec);
    }
};

/** Build and publish a small segment; returns the record inputs. */
struct SegmentFixture
{
    std::vector<std::vector<int64_t>> keys;
    std::vector<std::string> payloads;
    std::vector<core::SegmentRecord> records;

    explicit SegmentFixture(size_t entries)
    {
        util::SplitMix64 rng(20170706);
        for (size_t i = 0; i < entries; ++i) {
            keys.push_back({static_cast<int64_t>(i), rng.nextInt(1, 99),
                            rng.nextInt(1, 99)});
            util::ByteWriter out;
            core::encodeRowPayload(out, randomStaircase(rng));
            payloads.push_back(out.bytes());
        }
        for (size_t i = 0; i < entries; ++i)
            records.push_back({core::kCacheRecordRow, &keys[i],
                               payloads[i]});
    }
};

TEST(FrontierCacheSegment, TwoMappingsServeByteIdenticalViews)
{
    ScratchSegment scratch;
    SegmentFixture fixture(37);
    std::string image = core::FrontierCacheSegment::build(
        0xfeedULL, 7, fixture.records);
    ASSERT_FALSE(image.empty());
    ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(), image));

    // Two independent mappings of the published file (what two worker
    // processes do): every lookup view must be byte-identical between
    // them and equal to the encoded payload.
    core::FrontierCacheSegment a =
        core::FrontierCacheSegment::open(scratch.path.string(), 0xfeed);
    core::FrontierCacheSegment b =
        core::FrontierCacheSegment::open(scratch.path.string(), 0xfeed);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(a.generation(), 7u);
    EXPECT_EQ(a.entryCount(), fixture.keys.size());
    EXPECT_EQ(a.bytes(), b.bytes());
    for (size_t i = 0; i < fixture.keys.size(); ++i) {
        std::string_view via_a =
            a.find(core::kCacheRecordRow, fixture.keys[i]);
        std::string_view via_b =
            b.find(core::kCacheRecordRow, fixture.keys[i]);
        ASSERT_FALSE(via_a.empty());
        ASSERT_EQ(via_a.size(), via_b.size());
        EXPECT_EQ(std::memcmp(via_a.data(), via_b.data(),
                              via_a.size()),
                  0);
        EXPECT_EQ(std::string(via_a), fixture.payloads[i]);
        // The views alias distinct mappings of the same file.
        EXPECT_NE(via_a.data(), via_b.data());
    }
    // Absent keys and wrong kinds answer empty, not garbage.
    EXPECT_TRUE(a.find(core::kCacheRecordRow, {123456, 7}).empty());
    EXPECT_TRUE(
        a.find(core::kCacheRecordTrace, fixture.keys[0]).empty());
}

TEST(FrontierCacheSegment, CorruptionAndMismatchesRefuseToMap)
{
    ScratchSegment scratch;
    SegmentFixture fixture(9);
    std::string image = core::FrontierCacheSegment::build(
        0xbeefULL, 3, fixture.records);
    ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(), image));

    core::SegmentOpen status = core::SegmentOpen::Mapped;
    EXPECT_TRUE(core::FrontierCacheSegment::open(scratch.path.string(),
                                                 0xbeef, &status)
                    .valid());
    EXPECT_EQ(status, core::SegmentOpen::Mapped);

    // Wrong fingerprint: a binary with different model formulas must
    // not serve these rows — an expected invalidation, not damage.
    EXPECT_FALSE(core::FrontierCacheSegment::open(
                     scratch.path.string(), 0xdead, &status)
                     .valid());
    EXPECT_EQ(status, core::SegmentOpen::Stale);
    {
        std::string other_version = image;
        other_version[8] = static_cast<char>(other_version[8] + 1);
        ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(),
                                            other_version));
        EXPECT_FALSE(core::FrontierCacheSegment::open(
                         scratch.path.string(), 0xbeef, &status)
                         .valid());
        EXPECT_EQ(status, core::SegmentOpen::Stale);
    }

    // Any single flipped byte fails the checksum (or the header
    // validation that precedes it).
    for (size_t i = 0; i < image.size();
         i += std::max<size_t>(1, image.size() / 64)) {
        std::string bad = image;
        bad[i] = static_cast<char>(bad[i] ^ 0x80);
        ASSERT_TRUE(
            util::publishFileAtomic(scratch.path.string(), bad));
        EXPECT_FALSE(core::FrontierCacheSegment::open(
                         scratch.path.string(), 0xbeef, &status)
                         .valid())
            << "flip at " << i;
        if (i >= 24) {  // past magic, version and fingerprint
            EXPECT_EQ(status, core::SegmentOpen::Damaged) << i;
        }
    }

    // Truncations never map.
    for (size_t cut : {size_t{0}, size_t{7}, size_t{63},
                       image.size() / 2, image.size() - 1}) {
        ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(),
                                            image.substr(0, cut)));
        EXPECT_FALSE(core::FrontierCacheSegment::open(
                         scratch.path.string(), 0xbeef, &status)
                         .valid())
            << "truncation at " << cut;
        EXPECT_EQ(status, core::SegmentOpen::Damaged) << cut;
    }

    fs::remove(scratch.path);
    EXPECT_FALSE(core::FrontierCacheSegment::open(scratch.path.string(),
                                                  0xbeef, &status)
                     .valid());
    EXPECT_EQ(status, core::SegmentOpen::Missing);
}

TEST(FrontierCacheSegment, CountersRoundTripThroughTheImage)
{
    ScratchSegment scratch;
    SegmentFixture fixture(13);
    for (size_t i = 0; i < fixture.records.size(); ++i) {
        fixture.records[i].hits = static_cast<uint32_t>(7 * i);
        fixture.records[i].lastGen = static_cast<uint32_t>(100 + i);
    }
    std::string image = core::FrontierCacheSegment::build(
        0xc0deULL, 9, fixture.records);
    EXPECT_EQ(image.size(),
              core::FrontierCacheSegment::imageBytes(
                  fixture.records.size(), 3 * fixture.records.size(),
                  [&] {
                      size_t bytes = 0;
                      for (const std::string &p : fixture.payloads)
                          bytes += p.size();
                      return bytes;
                  }()));
    ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(), image));
    core::FrontierCacheSegment segment =
        core::FrontierCacheSegment::open(scratch.path.string(), 0xc0de);
    ASSERT_TRUE(segment.valid());
    std::vector<core::SegmentEntry> entries = segment.entries();
    ASSERT_EQ(entries.size(), fixture.keys.size());
    for (const core::SegmentEntry &entry : entries) {
        size_t i = static_cast<size_t>(entry.key[0]);
        ASSERT_LT(i, fixture.keys.size());
        EXPECT_EQ(entry.kind, core::kCacheRecordRow);
        EXPECT_EQ(entry.key, fixture.keys[i]);
        EXPECT_EQ(std::string(entry.payload), fixture.payloads[i]);
        EXPECT_EQ(entry.hits, 7 * i);
        EXPECT_EQ(entry.lastGen, 100 + i);
    }
}

/** Overwrite @p bytes little-endian bytes of @p image at @p at. */
void
pokeLe(std::string &image, size_t at, uint64_t value, size_t bytes)
{
    for (size_t i = 0; i < bytes && at + i < image.size(); ++i)
        image[at + i] = static_cast<char>(value >> (8 * i));
}

uint64_t
peekLe(const std::string &image, size_t at, size_t bytes)
{
    uint64_t value = 0;
    for (size_t i = 0; i < bytes; ++i)
        value |= static_cast<uint64_t>(
                     static_cast<unsigned char>(image[at + i]))
                 << (8 * i);
    return value;
}

TEST(FrontierCacheSegment, HostileImagesNeverEscapeTheMapping)
{
    // Seeded property fuzz over the cache's one on-disk format. Start
    // from a valid image of rows and traces, corrupt the fields that
    // steer reads (slot key/payload offsets and lengths, key-word
    // counts, counter words, the entry and slot counts), then re-seal
    // the checksum, which covers the header fields too, so every
    // mutation gets past it. Each round, open() either refuses the
    // image, or every view it serves lies inside the mapping and every
    // payload either fails to decode or decodes to a staircase / walk
    // that keeps its invariants.
    util::SplitMix64 rng(20170707);
    std::vector<std::vector<int64_t>> keys;
    std::vector<std::string> payloads;
    std::vector<core::SegmentRecord> records;
    size_t key_words = 0;
    for (size_t i = 0; i < 24; ++i) {
        std::vector<int64_t> key;
        util::ByteWriter out;
        uint8_t kind = i % 3 == 2 ? core::kCacheRecordTrace
                                  : core::kCacheRecordRow;
        if (kind == core::kCacheRecordTrace) {
            size_t groups = static_cast<size_t>(rng.nextInt(1, 4));
            for (size_t g = 0; g < groups; ++g) {
                key.push_back(rng.nextInt(1, 64));
                key.push_back(-1);
            }
            core::encodeTracePayload(out, randomTrace(rng, groups));
        } else {
            key.resize(static_cast<size_t>(rng.nextInt(1, 9)));
            for (int64_t &word : key)
                word = rng.nextInt(-5, 1 << 20);
            core::encodeRowPayload(out, randomStaircase(rng));
        }
        key_words += key.size();
        keys.push_back(std::move(key));
        payloads.push_back(out.bytes());
    }
    for (size_t i = 0; i < keys.size(); ++i)
        records.push_back({i % 3 == 2 ? core::kCacheRecordTrace
                                      : core::kCacheRecordRow,
                           &keys[i], payloads[i],
                           static_cast<uint32_t>(i),
                           static_cast<uint32_t>(i / 2)});
    const std::string valid =
        core::FrontierCacheSegment::build(0xf00dULL, 5, records);
    const size_t slots = peekLe(valid, 12, 4);
    const size_t counters_off = 64 + slots * 24 + key_words * 8;

    ScratchSegment scratch;
    size_t refused = 0, served = 0, decoded = 0;
    for (int round = 0; round < 800; ++round) {
        std::string image = valid;
        int mutations = static_cast<int>(rng.nextInt(1, 3));
        for (int m = 0; m < mutations; ++m) {
            size_t s = static_cast<size_t>(rng.nextInt(0, slots - 1));
            size_t slot = 64 + s * 24;
            // Mostly plausible values near the real geometry, some
            // wild ones.
            uint64_t near = static_cast<uint64_t>(
                rng.nextInt(0, static_cast<int64_t>(image.size())));
            uint64_t value = rng.nextInt(0, 3) == 0 ? rng.next() : near;
            switch (rng.nextInt(0, 7)) {
            case 0:  // key offset, in words
                pokeLe(image, slot + 8, value / 8, 4);
                break;
            case 1:  // kind and key-word count
                pokeLe(image, slot + 12,
                       (static_cast<uint64_t>(rng.nextInt(0, 3)) << 24) |
                           static_cast<uint64_t>(rng.nextInt(0, 40)),
                       4);
                break;
            case 2:  // payload offset
                pokeLe(image, slot + 16, value, 4);
                break;
            case 3:  // payload length
                pokeLe(image, slot + 20, value % 512, 4);
                break;
            case 4:  // counter words
                pokeLe(image, counters_off + s * 8 + 4 * (m % 2),
                       rng.next(), 4);
                break;
            case 5:  // slot count
                pokeLe(image, 12,
                       rng.nextInt(0, 4) == 0
                           ? value
                           : uint64_t{1} << rng.nextInt(0, 12),
                       4);
                break;
            case 6:  // entry count
                pokeLe(image, 32,
                       static_cast<uint64_t>(
                           rng.nextInt(0, 2 * keys.size())),
                       8);
                break;
            default:  // key-blob words
                pokeLe(image, 40,
                       static_cast<uint64_t>(
                           rng.nextInt(0, 2 * key_words)),
                       8);
                break;
            }
        }
        pokeLe(image, 56, core::FrontierCacheSegment::checksum(image), 8);
        {
            std::FILE *file =
                std::fopen(scratch.path.string().c_str(), "wb");
            ASSERT_NE(file, nullptr);
            ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), file),
                      image.size());
            std::fclose(file);
        }

        core::FrontierCacheSegment segment =
            core::FrontierCacheSegment::open(scratch.path.string(),
                                             0xf00d);
        if (!segment.valid()) {
            ++refused;
            continue;
        }
        ++served;
        std::string_view whole = segment.image();
        auto begin = reinterpret_cast<uintptr_t>(whole.data());
        auto end = begin + whole.size();
        auto check = [&](uint8_t kind, const std::vector<int64_t> &key,
                         std::string_view payload) {
            auto at = reinterpret_cast<uintptr_t>(payload.data());
            ASSERT_TRUE(at >= begin && at + payload.size() <= end)
                << "round " << round;
            if (kind == core::kCacheRecordRow) {
                auto row = core::decodeRowPayload(payload);
                if (!row)
                    return;
                ++decoded;
                for (size_t p = 1; p < row->size(); ++p) {
                    EXPECT_GT(row->point(p).dsp, row->point(p - 1).dsp);
                    EXPECT_LT(row->point(p).cycles,
                              row->point(p - 1).cycles);
                }
            } else if (kind == core::kCacheRecordTrace) {
                core::FrontierTraceImage trace;
                size_t groups = core::traceKeyGroups(key);
                if (!core::decodeTracePayload(payload, groups, trace))
                    return;
                ++decoded;
                int64_t bram = trace.initialBram;
                for (const auto &step : trace.steps) {
                    EXPECT_LT(step.clp, groups);
                    EXPECT_LT(step.totalBram, bram);
                    bram = step.totalBram;
                }
            }
        };
        for (const core::SegmentEntry &entry : segment.entries()) {
            check(entry.kind, entry.key, entry.payload);
            std::string_view found = segment.find(entry.kind, entry.key);
            if (!found.empty())
                check(entry.kind, entry.key, found);
        }
        for (size_t i = 0; i < keys.size(); ++i) {
            uint8_t kind = records[i].kind;
            std::string_view found = segment.find(kind, keys[i]);
            if (!found.empty())
                check(kind, keys[i], found);
        }
    }
    // Both outcomes must actually occur, or the fuzz proves nothing.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_GT(decoded, 0u);
}

} // namespace
} // namespace mclp
