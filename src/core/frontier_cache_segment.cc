#include "core/frontier_cache_segment.h"

#include <unistd.h>

#include <cstring>

#include "util/record_file.h"

namespace mclp {
namespace core {

namespace {

/** Fixed header size; the layout below must stay within it. */
constexpr size_t kHeaderBytes = 64;
/** Slot: u64 hash | u32 keyOff | u32 kind<<24|keyWords | u32
 * payloadOff | u32 payloadLen. kindWords == 0 marks an empty slot
 * (keys are never empty). */
constexpr size_t kSlotBytes = 24;
/** Counter pair per slot: u32 hits | u32 last-hit generation. */
constexpr size_t kCounterBytes = 8;

uint64_t
slotHash(uint8_t kind, const int64_t *words, size_t count)
{
    // Prefix the kind so a row and a trace with identical key words
    // (impossible today, cheap to rule out forever) never collide.
    uint64_t hash = 1469598103934665603ULL;
    hash ^= kind;
    hash *= 1099511628211ULL;
    for (size_t i = 0; i < count; ++i) {
        hash ^= static_cast<uint64_t>(words[i]);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** Power-of-two table at most half full. */
uint32_t
slotCountFor(size_t records)
{
    uint32_t slot_count = 8;
    while (slot_count < 2 * records)
        slot_count *= 2;
    return slot_count;
}

uint64_t
loadU64(const unsigned char *bytes)
{
    uint64_t value = 0;
    for (size_t i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return value;
}

uint32_t
loadU32(const unsigned char *bytes)
{
    uint32_t value = 0;
    for (size_t i = 0; i < 4; ++i)
        value |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    return value;
}

void
storeLe(unsigned char *bytes, uint64_t value, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
}

} // namespace

FrontierCacheSegment
FrontierCacheSegment::open(const std::string &path, uint64_t fingerprint,
                           SegmentOpen *status)
{
    FrontierCacheSegment segment;
    SegmentOpen ignored;
    SegmentOpen &result = status ? *status : ignored;
    util::MappedFile map = util::MappedFile::map(path);
    if (!map.valid()) {
        result = ::access(path.c_str(), F_OK) == 0
                     ? SegmentOpen::Damaged  // empty or unmappable
                     : SegmentOpen::Missing;
        return segment;
    }
    result = SegmentOpen::Damaged;
    if (map.size() < kHeaderBytes)
        return segment;
    const unsigned char *base = map.data();
    if (loadU64(base) != kFrontierSegmentMagic)
        return segment;  // not a segment at all
    if (loadU32(base + 8) != kFrontierSegmentVersion ||
        loadU64(base + 16) != fingerprint) {
        result = SegmentOpen::Stale;
        return segment;
    }
    uint32_t slot_count = loadU32(base + 12);
    uint64_t generation = loadU64(base + 24);
    uint64_t entry_count = loadU64(base + 32);
    uint64_t key_words = loadU64(base + 40);
    uint64_t file_bytes = loadU64(base + 48);
    uint64_t checksum = loadU64(base + 56);
    if (file_bytes != map.size())
        return segment;
    if (FrontierCacheSegment::checksum(map.view()) != checksum)
        return segment;
    // Geometry: power-of-two slot table, then the 8-aligned key blob,
    // then one counter pair per slot, then payloads to end of file.
    if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0)
        return segment;
    size_t key_off = kHeaderBytes + size_t{slot_count} * kSlotBytes;
    if (key_off > map.size() || key_words > (map.size() - key_off) / 8)
        return segment;
    size_t counters_off = key_off + static_cast<size_t>(key_words) * 8;
    if (size_t{slot_count} > (map.size() - counters_off) / kCounterBytes)
        return segment;
    size_t payload_off = counters_off + size_t{slot_count} * kCounterBytes;
    size_t payload_bytes = map.size() - payload_off;

    // Validate every slot once so find() can trust offsets blindly.
    size_t live = 0;
    for (uint32_t s = 0; s < slot_count; ++s) {
        const unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
        uint32_t kind_words = loadU32(slot + 12);
        if (kind_words == 0)
            continue;
        uint32_t words = kind_words & 0xffffff;
        uint32_t k_off = loadU32(slot + 8);
        uint32_t p_off = loadU32(slot + 16);
        uint32_t p_len = loadU32(slot + 20);
        if (words == 0 || k_off > key_words ||
            words > key_words - k_off || p_off > payload_bytes ||
            p_len > payload_bytes - p_off)
            return segment;
        ++live;
    }
    if (live != entry_count)
        return segment;

    result = SegmentOpen::Mapped;
    segment.map_ = std::move(map);
    segment.generation_ = generation;
    segment.slotCount_ = slot_count;
    segment.entryCount_ = static_cast<size_t>(entry_count);
    segment.keyWordsOff_ = key_off;
    segment.countersOff_ = counters_off;
    segment.payloadOff_ = payload_off;
    return segment;
}

std::string_view
FrontierCacheSegment::find(uint8_t kind,
                           const std::vector<int64_t> &key) const
{
    if (!valid() || key.empty() || key.size() > 0xffffff)
        return {};
    const unsigned char *base = map_.data();
    uint64_t hash = slotHash(kind, key.data(), key.size());
    uint32_t mask = slotCount_ - 1;
    for (uint32_t probe = 0; probe < slotCount_; ++probe) {
        const unsigned char *slot =
            base + kHeaderBytes +
            ((static_cast<uint32_t>(hash) + probe) & mask) * kSlotBytes;
        uint32_t kind_words = loadU32(slot + 12);
        if (kind_words == 0)
            return {};  // empty slot terminates the probe chain
        if (loadU64(slot) != hash ||
            (kind_words >> 24) != kind ||
            (kind_words & 0xffffff) != key.size())
            continue;
        const unsigned char *stored =
            base + keyWordsOff_ + size_t{loadU32(slot + 8)} * 8;
        bool match = true;
        for (size_t i = 0; match && i < key.size(); ++i)
            match = static_cast<int64_t>(loadU64(stored + i * 8)) ==
                    key[i];
        if (!match)
            continue;
        return {reinterpret_cast<const char *>(base) + payloadOff_ +
                    loadU32(slot + 16),
                loadU32(slot + 20)};
    }
    return {};
}

std::vector<SegmentEntry>
FrontierCacheSegment::entries() const
{
    std::vector<SegmentEntry> entries;
    if (!valid())
        return entries;
    entries.reserve(entryCount_);
    const unsigned char *base = map_.data();
    for (uint32_t s = 0; s < slotCount_; ++s) {
        const unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
        uint32_t kind_words = loadU32(slot + 12);
        if (kind_words == 0)
            continue;
        SegmentEntry entry;
        entry.kind = static_cast<uint8_t>(kind_words >> 24);
        entry.key.resize(kind_words & 0xffffff);
        const unsigned char *stored =
            base + keyWordsOff_ + size_t{loadU32(slot + 8)} * 8;
        for (size_t i = 0; i < entry.key.size(); ++i)
            entry.key[i] = static_cast<int64_t>(loadU64(stored + i * 8));
        entry.payload = {reinterpret_cast<const char *>(base) +
                             payloadOff_ + loadU32(slot + 16),
                         loadU32(slot + 20)};
        const unsigned char *counters =
            base + countersOff_ + size_t{s} * kCounterBytes;
        entry.hits = loadU32(counters);
        entry.lastGen = loadU32(counters + 4);
        entries.push_back(std::move(entry));
    }
    return entries;
}

size_t
FrontierCacheSegment::imageBytes(size_t records, size_t key_words,
                                 size_t payload_bytes)
{
    return kHeaderBytes +
           size_t{slotCountFor(records)} * (kSlotBytes + kCounterBytes) +
           key_words * 8 + payload_bytes;
}

std::string
FrontierCacheSegment::build(uint64_t fingerprint, uint64_t generation,
                            const std::vector<SegmentRecord> &records)
{
    uint32_t slot_count = slotCountFor(records.size());
    size_t key_words = 0;
    size_t payload_bytes = 0;
    for (const SegmentRecord &record : records) {
        key_words += record.key->size();
        payload_bytes += record.payload.size();
    }
    // Laid out in place: one allocation of the final size, no staging
    // copies of the (multi-megabyte) payload blob.
    std::string image(imageBytes(records.size(), key_words,
                                 payload_bytes),
                      '\0');
    unsigned char *base = reinterpret_cast<unsigned char *>(image.data());
    size_t key_off = kHeaderBytes + size_t{slot_count} * kSlotBytes;
    size_t counters_off = key_off + key_words * 8;
    size_t payload_off = counters_off + size_t{slot_count} * kCounterBytes;

    uint32_t mask = slot_count - 1;
    size_t key_at = 0;      // in words
    size_t payload_at = 0;  // in bytes
    for (const SegmentRecord &record : records) {
        const std::vector<int64_t> &key = *record.key;
        uint64_t hash = slotHash(record.kind, key.data(), key.size());
        uint32_t s = static_cast<uint32_t>(hash) & mask;
        while (loadU32(base + kHeaderBytes + s * kSlotBytes + 12) != 0)
            s = (s + 1) & mask;
        unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
        storeLe(slot, hash, 8);
        storeLe(slot + 8, key_at, 4);
        storeLe(slot + 12,
                (uint32_t{record.kind} << 24) |
                    static_cast<uint32_t>(key.size()),
                4);
        storeLe(slot + 16, payload_at, 4);
        storeLe(slot + 20, record.payload.size(), 4);
        unsigned char *counters =
            base + counters_off + size_t{s} * kCounterBytes;
        storeLe(counters, record.hits, 4);
        storeLe(counters + 4, record.lastGen, 4);
        for (size_t i = 0; i < key.size(); ++i)
            storeLe(base + key_off + (key_at + i) * 8,
                    static_cast<uint64_t>(key[i]), 8);
        if (!record.payload.empty())
            std::memcpy(base + payload_off + payload_at,
                        record.payload.data(), record.payload.size());
        key_at += key.size();
        payload_at += record.payload.size();
    }

    storeLe(base, kFrontierSegmentMagic, 8);
    storeLe(base + 8, kFrontierSegmentVersion, 4);
    storeLe(base + 12, slot_count, 4);
    storeLe(base + 16, fingerprint, 8);
    storeLe(base + 24, generation, 8);
    storeLe(base + 32, records.size(), 8);
    storeLe(base + 40, key_words, 8);
    storeLe(base + 48, image.size(), 8);
    storeLe(base + 56, checksum(image), 8);
    return image;
}

uint64_t
FrontierCacheSegment::checksum(std::string_view image)
{
    return util::fnv1aBytes(
        image.data() + kHeaderBytes, image.size() - kHeaderBytes,
        util::fnv1aBytes(image.data() + 8, kHeaderBytes - 16));
}

} // namespace core
} // namespace mclp
