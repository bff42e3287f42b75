/**
 * @file
 * The persistent frontier cache: warm DSE state that survives the
 * process, shared across processes through one mmap'd file.
 *
 * Warm sessions make one frontier build answer a whole budget ladder,
 * and one registry serve many networks, but a fresh mclp-opt or
 * dse-sweep invocation and every mclp-serve restart would otherwise
 * rebuild the same Pareto staircases from scratch. FrontierCache
 * persists the two expensive, budget-independent artifacts:
 *
 *  - ShapeFrontier staircases, keyed by the FrontierRowStore's
 *    dims-sequence keys (type, units cap, per-layer n/m/r*c*k^2/g) —
 *    network identity never enters, so a cache populated by one CNN
 *    warms dims-identical ranges of another;
 *  - MemoryOptimizer greedy-walk traces, keyed by the
 *    TradeoffCurveCache partition signatures (type, per-group shape
 *    and layer tiling dims).
 *
 * The only persistent format is the segment (frontier_cache.seg,
 * core/frontier_cache_segment.h): an immutable, checksummed,
 * hash-indexed image of delta-encoded records (core/frontier_codec.h),
 * each with a hit counter and the generation of its last hit. Opening
 * a cache maps the segment read-only — rows and traces then decode
 * lazily, straight out of the mapping, and N worker processes share
 * one page-cache copy — or starts cold. Sharded fronts extend the
 * ladder sideways: FrontierCacheOptions::siblingDirs attaches the
 * *other* shards' published segments read-only, so a row any shard on
 * the host flushed warms every shard. Lookups report which tier
 * answered (CacheTier), so cache-stats can show the ladder:
 * process -> mmap -> sibling -> cold.
 *
 * Invalidation is versioned, never heuristic: the segment header
 * carries a layout version and a *model-formula fingerprint* — a hash
 * over probe evaluations of the cycle/DSP/BRAM/bandwidth models — so
 * a cache written by a binary with another layout or other model
 * constants is refused wholesale (a clean cold start) and replaced by
 * the next flush, rather than silently corrupting results. A
 * truncated or bit-rotted image fails its checksum and starts wholly
 * cold (an unclean start, Stats::loadedClean = false).
 *
 * The cache is a read-through/write-back layer: FrontierRowStore and
 * TradeoffCurveCache consult it on a miss and note fresh builds, and
 * flush() merges pending entries with whatever image is at the path
 * *now* (concurrent CLIs interleave safely under a per-directory
 * advisory lock) and publishes one new image with an atomic
 * tmp+rename, so a crash never leaves a half-written cache.
 * SessionRegistry flushes on destruction, which covers mclp-opt,
 * dse-sweep, and mclp-serve shutdown alike. A flush with nothing new —
 * including one where only hit counters moved — is a no-op; counter
 * updates piggyback on the next flush that publishes anyway.
 *
 * The project invariant extends to disk: designs answered from a
 * cache-warm process are byte-for-byte identical to cold runs
 * (tests/core/test_frontier_cache.cc pins this on fixed and random
 * networks; the CI smoke diffs whole mclp-opt responses).
 */

#ifndef MCLP_CORE_FRONTIER_CACHE_H
#define MCLP_CORE_FRONTIER_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "core/memory_optimizer.h"
#include "core/shape_frontier.h"
#include "util/hash.h"

namespace mclp {
namespace core {

/** The record file earlier versions wrote next to the segment.
 * Nothing writes it any more; a flush removes a leftover one, so an
 * upgraded directory converges on the segment and the lock file. */
constexpr const char *kFrontierCacheFileName = "frontier_cache.bin";
/** Advisory lock file that serializes flushes of one directory. */
constexpr const char *kFrontierCacheLockName = "frontier_cache.lock";

/**
 * Digest of the analytical models a cached artifact depends on,
 * computed by hashing probe evaluations of the cycle, DSP, BRAM, and
 * bandwidth models (not source text — exactly the formulas). Any
 * constant tweak in those models changes the fingerprint, and every
 * cache file written under the old formulas self-invalidates.
 */
uint64_t modelFormulaFingerprint();

/** Which storage tier answered a cache lookup. */
enum class CacheTier
{
    None,     ///< not in the persistent cache at all (cold build)
    Mmap,     ///< this shard's cache: decoded from its mapped segment
              ///< (or written by this process's own flush)
    Sibling,  ///< decoded from a sibling shard's published segment
};

struct FrontierCacheOptions
{
    /** Byte budget for the segment file (0 = unbounded). When a flush
     * would exceed it, the least-recently-hit records (oldest
     * last-hit generation, then fewest hits) are evicted until the
     * new image fits; records touched this session survive first. */
    size_t maxBytes = 0;
    /**
     * Cache directories of sibling shards (mclp-serve
     * --cache-sibling, one per other worker of a sharded front).
     * Their published segments are attached read-only and consulted
     * after this shard's own tiers miss, before a cold build — K
     * shards on one host then form a shared warm tier instead of K
     * cold silos. Safe by construction: segments are immutable,
     * checksummed, fingerprint-validated images, and every record is
     * a deterministic function of its key, so a sibling hit is
     * byte-identical to a local build. Sibling records are never
     * written back into this shard's segment.
     */
    std::vector<std::string> siblingDirs;
};

/**
 * One process's view of an on-disk cache directory. Thread safe; one
 * instance is shared by every session of a SessionRegistry.
 */
class FrontierCache
{
  public:
    struct Stats
    {
        size_t rowHits = 0;        ///< lookups the cache answered
        size_t traceHits = 0;      ///< trace seeds the cache answered
        size_t rowsPending = 0;    ///< fresh rows awaiting flush
        size_t tracesNoted = 0;    ///< live traces tracked for flush
        size_t flushes = 0;        ///< successful flush() commits
        /** The segment was absent or mapped whole. A stale
         * version/fingerprint also counts as clean (expected
         * invalidation); truncation, bit rot and foreign files do
         * not. */
        bool loadedClean = true;
        /** Generation of the mapped segment (or of this process's
         * latest publish); every publish advances it. */
        uint64_t generation = 0;
        bool segmentMapped = false;   ///< serving from the mmap tier
        size_t segmentEntries = 0;    ///< records in the mapped image
        size_t segmentBytes = 0;      ///< bytes of the mapped image
        size_t segmentRowHits = 0;    ///< row hits decoded from mmap
        size_t segmentTraceHits = 0;  ///< trace hits decoded from mmap
        size_t evictedLastFlush = 0;  ///< records the budget dropped
        size_t siblingDirs = 0;       ///< sibling shards configured
        size_t siblingSegments = 0;   ///< sibling segments mapped now
        size_t siblingRowHits = 0;    ///< rows decoded from siblings
        size_t siblingTraceHits = 0;  ///< traces decoded from siblings
    };

    /**
     * Open (and create if needed) cache directory @p dir and map its
     * segment. Any defect — missing directory, stale version or
     * fingerprint, truncation, checksum mismatch — degrades to an
     * empty (cold) cache; construction never throws for file reasons.
     * Nothing is decoded up front: entries stream from the mapping on
     * demand.
     */
    explicit FrontierCache(std::string dir,
                           FrontierCacheOptions options = {});

    const std::string &dir() const { return dir_; }

    /**
     * The persisted staircase for a FrontierRowStore key, or null.
     * Decoded rows stay resident for the process lifetime, as do the
     * rows this process's flushes wrote, so repeated lookups share
     * one immutable object.
     * @p tier, when given, reports which tier answered.
     */
    std::shared_ptr<const ShapeFrontier>
    loadRow(const std::vector<int64_t> &key, CacheTier *tier = nullptr);

    /** Record a freshly built staircase for the next flush(). */
    void noteRow(const std::vector<int64_t> &key,
                 std::shared_ptr<const ShapeFrontier> row);

    /**
     * Seed a just-created PartitionTrace from the cache. @p trace must
     * not be shared with other threads yet (it is filled unlocked).
     * Returns false — leaving the trace untouched — when the key is
     * absent or the stored trace fails validation.
     */
    bool seedTrace(const std::vector<int64_t> &key,
                   TradeoffCurveCache::PartitionTrace &trace,
                   CacheTier *tier = nullptr);

    /**
     * Track a live trace for write-back: at flush() time its current
     * walk prefix is serialized when it goes deeper than what the
     * segment already holds. Tracking keeps the trace alive; traces
     * are small (a step sequence), so this pins negligible memory.
     */
    void noteTrace(
        const std::vector<int64_t> &key,
        std::shared_ptr<TradeoffCurveCache::PartitionTrace> trace);

    /**
     * Write-back: under the advisory lock, map the segment now at the
     * path (a concurrent CLI may have published since we opened),
     * merge its entries with pending rows and grown traces, fold this
     * process's hit counts into the record counters, evict past the
     * byte budget, and publish one new image (tmp, fsync, rename).
     * No-op (returning true) when nothing but hit counters changed —
     * counter updates ride the next real publish. False on I/O
     * failure — the previous image survives.
     */
    bool flush();

    Stats stats() const;

  private:
    using RowMap =
        std::unordered_map<std::vector<int64_t>,
                           std::shared_ptr<const ShapeFrontier>,
                           util::Int64VectorHash>;
    using TraceMap = std::unordered_map<std::vector<int64_t>,
                                        FrontierTraceImage,
                                        util::Int64VectorHash>;
    using HitMap = std::unordered_map<std::vector<int64_t>, uint32_t,
                                      util::Int64VectorHash>;

    /**
     * One sibling shard's published segment, attached lazily and
     * re-attached when the sibling republishes. The mapping pins the
     * inode, so a rename-over by the sibling never tears a reader; a
     * stat snapshot of the path detects republication cheaply, and
     * the generation stamp guards against replacing a newer mapping
     * with an older image (a wiped-and-recreated sibling restarts at
     * generation 1 — staleness only costs warmth, never correctness,
     * because records are pure functions of their keys).
     */
    struct SiblingSegment
    {
        std::string path;  ///< DIR/frontier_cache.seg
        FrontierCacheSegment segment;
        int64_t statIno = -1;
        int64_t statSize = -1;
        int64_t statMtimeNs = -1;
    };

    /** Probe every sibling segment for (kind, key), refreshing stale
     * mappings first. Empty view on a miss. Call under mutex_. */
    std::string_view findInSiblings(uint8_t kind,
                                    const std::vector<int64_t> &key);

    std::string dir_;
    std::string lockPath_;
    std::string segmentPath_;
    std::string retiredPath_;  ///< kFrontierCacheFileName in dir_
    FrontierCacheOptions options_;
    uint64_t fingerprint_;

    mutable std::mutex mutex_;
    FrontierCacheSegment segment_;  ///< invalid when absent or refused
    /** Rows decoded on demand from segment_, plus the rows this
     * process's flushes wrote: the memo that pins every persistent row
     * the process has touched (FrontierRowStore::memoryBytes relies on
     * it) and that noteRow() dedups against. */
    RowMap rows_;
    TraceMap traces_;  ///< the same memo for walk traces
    std::vector<SiblingSegment> siblings_;  ///< other shards' tiers
    RowMap siblingRows_;     ///< rows decoded from sibling segments
    TraceMap siblingTraces_; ///< traces decoded from sibling segments
    RowMap pendingRows_;   ///< built this process, not yet flushed
    /** Live traces to serialize at flush; deduped by key, first noted
     * wins (concurrent sessions converge on one trace per key in
     * their own caches anyway). */
    std::unordered_map<
        std::vector<int64_t>,
        std::shared_ptr<TradeoffCurveCache::PartitionTrace>,
        util::Int64VectorHash>
        notedTraces_;
    /** Hits this process scored per key, folded into the segment's
     * counters by the next flush that publishes anyway. */
    HitMap rowHitDelta_;
    HitMap traceHitDelta_;
    uint64_t generation_ = 0;  ///< of segment_ or our latest publish
    size_t rowHits_ = 0;
    size_t traceHits_ = 0;
    size_t segmentRowHits_ = 0;
    size_t segmentTraceHits_ = 0;
    size_t siblingRowHits_ = 0;
    size_t siblingTraceHits_ = 0;
    size_t evictedLastFlush_ = 0;
    size_t flushes_ = 0;
    bool loadedClean_ = true;
};

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_FRONTIER_CACHE_H
