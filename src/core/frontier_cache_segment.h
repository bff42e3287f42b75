/**
 * @file
 * The cache segment: the one persistent file of the frontier cache
 * (core/frontier_cache.h). An immutable, checksummed, hash-indexed
 * image that every worker process on a host maps read-only.
 *
 *   [64-byte header | slot table | key blob | counter block | payloads]
 *
 * The slot table is an open-addressed, linearly probed hash table
 * over (kind, key words), so find() is a probe walk plus one key
 * compare, no allocation, no decode. The counter block holds
 * one (hits, last-hit generation) pair per slot: the least-recently-
 * hit eviction of a byte-budgeted flush reads them, and every flush
 * rewrites them. Payloads are the delta encodings of
 * core/frontier_codec.h, decoded lazily by whoever needs the row; N
 * workers mapping one segment share one page-cache copy of the bytes
 * and decode only what they touch.
 *
 * A flush never modifies an image in place: it merges the image at
 * the path with its own new entries and publishes a complete new one
 * with an atomic tmp+rename (util::publishFileAtomic), so a reader
 * maps either the old or the new image, never a torn mix, and a
 * leftover "<path>.tmp" from a killed publish is never read. The
 * header carries a layout version, the model-formula fingerprint and
 * a generation stamp that every publish advances. One FNV-1a checksum
 * (checksum()) covers every header field and every byte after the
 * header, and is checked once at open; all slot offsets are
 * bounds-validated then too, so find() never reads outside the
 * mapping however hostile the file.
 */

#ifndef MCLP_CORE_FRONTIER_CACHE_SEGMENT_H
#define MCLP_CORE_FRONTIER_CACHE_SEGMENT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/shm.h"

namespace mclp {
namespace core {

/** First bytes of a segment file ("MCLPSG01", little-endian u64). */
constexpr uint64_t kFrontierSegmentMagic = 0x3130475350434C4DULL;

/** Bump on any change to the segment layout. v2: the per-slot
 * counter block between the key blob and the payloads. v3: the
 * checksum covers the header fields too. */
constexpr uint32_t kFrontierSegmentVersion = 3;

/** Segment file name inside the cache directory. */
constexpr const char *kFrontierSegmentFileName = "frontier_cache.seg";

/** One record of a segment image under construction. The key is
 * borrowed (build() runs inside flush(), whose merge maps own the
 * keys); the payload is a delta encoding from core/frontier_codec.h. */
struct SegmentRecord
{
    uint8_t kind = 0;
    const std::vector<int64_t> *key = nullptr;
    std::string_view payload;
    uint32_t hits = 0;     ///< lookups answered over the record's life
    uint32_t lastGen = 0;  ///< generation of its latest hit or write
};

/** One record of a mapped segment, as entries() lists it. The payload
 * aliases the mapping and lives as long as the segment does. */
struct SegmentEntry
{
    uint8_t kind = 0;
    std::vector<int64_t> key;
    std::string_view payload;
    uint32_t hits = 0;
    uint32_t lastGen = 0;
};

/** What open() found at the path. */
enum class SegmentOpen
{
    Mapped,   ///< a valid image, now mapped
    Missing,  ///< no file: a clean cold start
    Stale,    ///< another layout version or model fingerprint: a clean
              ///< cold start (expected invalidation)
    Damaged,  ///< truncated, foreign or corrupt: an unclean cold start
};

/**
 * A validated read-only mapping of a segment file. An image open()
 * refuses yields !valid() — callers treat that as "no segment", never
 * an error. Movable; the mapping pins the published inode even after
 * a newer generation renames over the path.
 */
class FrontierCacheSegment
{
  public:
    FrontierCacheSegment() = default;

    /**
     * Map and validate @p path: magic, version, fingerprint,
     * whole-body checksum, and every slot's offsets in bounds. Any
     * defect yields an invalid segment; @p status, when given, says
     * which kind of cold start that is.
     */
    static FrontierCacheSegment open(const std::string &path,
                                     uint64_t fingerprint,
                                     SegmentOpen *status = nullptr);

    /** Serialize @p records as a complete image for
     * util::publishFileAtomic. */
    static std::string build(uint64_t fingerprint, uint64_t generation,
                             const std::vector<SegmentRecord> &records);

    /** Exact size of the image build() makes from @p records records
     * holding @p key_words key words and @p payload_bytes payload
     * bytes in all (what a byte budget is checked against). */
    static size_t imageBytes(size_t records, size_t key_words,
                             size_t payload_bytes);

    /** The checksum stored at byte 56 of @p image (at least a header
     * long): header bytes 8..55 — version, slot count, fingerprint,
     * generation, entry count, key words, size — then every byte
     * after the header. */
    static uint64_t checksum(std::string_view image);

    bool valid() const { return map_.valid(); }
    uint64_t generation() const { return generation_; }
    size_t entryCount() const { return entryCount_; }
    /** Mapped bytes of the whole image (what cache-stats reports). */
    size_t bytes() const { return map_.size(); }
    /** The whole mapped image: every view find() and entries() hand
     * out lies inside it. */
    std::string_view image() const { return map_.view(); }

    /**
     * The stored delta payload for (kind, key), or an empty view.
     * The view aliases the mapping and stays valid for the segment's
     * lifetime. Lock-free and allocation-free — the image is
     * immutable, so concurrent finds need no coordination.
     */
    std::string_view find(uint8_t kind,
                          const std::vector<int64_t> &key) const;

    /** Every record with its counters, in slot order (flush() merges
     * these with the new entries). */
    std::vector<SegmentEntry> entries() const;

  private:
    util::MappedFile map_;
    uint64_t generation_ = 0;
    uint32_t slotCount_ = 0;
    size_t entryCount_ = 0;
    size_t keyWordsOff_ = 0;   ///< byte offset of the key blob
    size_t countersOff_ = 0;   ///< byte offset of the counter block
    size_t payloadOff_ = 0;    ///< byte offset of the payload blob
};

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_FRONTIER_CACHE_SEGMENT_H
