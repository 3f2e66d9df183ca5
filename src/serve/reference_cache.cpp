#include "edgepcc/serve/reference_cache.h"

#include <type_traits>
#include <utility>

#include "edgepcc/common/trace.h"

namespace edgepcc {
namespace serve {

// -----------------------------------------------------------------
// Hashing
// -----------------------------------------------------------------

std::uint64_t
fnv1a64(const void *data, std::size_t bytes, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace {

template <typename T>
std::uint64_t
hashVector(const std::vector<T> &values, std::uint64_t hash)
{
    const std::uint64_t count = values.size();
    hash = fnv1a64(&count, sizeof(count), hash);
    if (!values.empty())
        hash = fnv1a64(values.data(), values.size() * sizeof(T),
                       hash);
    return hash;
}

std::uint64_t
hashPod(const void *data, std::size_t bytes, std::uint64_t hash)
{
    return fnv1a64(data, bytes, hash);
}

template <typename T>
std::uint64_t
hashValue(const T &value, std::uint64_t hash)
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "hashValue needs a trivially copyable type");
    return hashPod(&value, sizeof(value), hash);
}

}  // namespace

std::uint64_t
cloudDigest(const VoxelCloud &cloud)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    hash = hashValue(cloud.gridBits(), hash);
    hash = hashVector(cloud.x(), hash);
    hash = hashVector(cloud.y(), hash);
    hash = hashVector(cloud.z(), hash);
    hash = hashVector(cloud.r(), hash);
    hash = hashVector(cloud.g(), hash);
    hash = hashVector(cloud.b(), hash);
    return hash;
}

std::uint64_t
codecConfigDigest(const CodecConfig &config)
{
    // Every field that can change an emitted byte participates.
    // Structs are hashed field by field (never as raw memory) so
    // padding bytes cannot poison the digest.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnv1a64(config.name.data(), config.name.size(), hash);
    hash = hashValue(config.attr_mode, hash);
    hash = hashValue(config.inter_mode, hash);
    hash = hashValue(config.gop_size, hash);

    hash = hashValue(config.geometry.builder, hash);
    hash = hashValue(config.geometry.entropy_coding, hash);
    hash = hashValue(config.geometry.contextual_entropy, hash);
    hash = hashValue(config.geometry.tight_bbox, hash);

    hash = hashValue(config.raht.qstep, hash);
    hash = hashValue(config.predicting.qstep, hash);
    hash = hashValue(config.predicting.lod_levels, hash);
    hash = hashValue(config.predicting.num_neighbors, hash);

    const auto hashSegment = [&hash](const SegmentCodecConfig &seg) {
        hash = hashValue(seg.num_segments, hash);
        hash = hashValue(seg.quant_step, hash);
        hash = hashValue(seg.two_layer, hash);
    };
    hashSegment(config.segment);

    hash = hashValue(config.block_match.num_blocks, hash);
    hash = hashValue(config.block_match.candidate_window, hash);
    hash = hashValue(config.block_match.reuse_threshold, hash);
    hashSegment(config.block_match.delta_codec);

    hash = hashValue(config.macro_block.mb_bits, hash);
    hash = hashValue(config.macro_block.icp_iterations, hash);
    hash = hashValue(config.macro_block.reuse_threshold, hash);
    return hash;
}

std::uint64_t
chainStreamKey(std::uint64_t key, std::uint64_t frame_digest)
{
    std::uint64_t hash = key;
    hash = hashValue(frame_digest, hash);
    return hash;
}

// -----------------------------------------------------------------
// ReferenceCache
// -----------------------------------------------------------------

ReferenceCache::ReferenceCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
ReferenceCache::touchLocked(std::uint64_t key)
{
    auto it = map_.find(key);
    if (it == map_.end())
        return;
    lru_.erase(it->second.lru_pos);
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
}

std::shared_ptr<const CacheEntry>
ReferenceCache::find(std::uint64_t key)
{
    ScopedTrace trace("serve.cache_find");
    MutexLock lock(mutex_);
    ++stats_.lookups;
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    touchLocked(key);
    return it->second.entry;
}

void
ReferenceCache::insert(std::uint64_t key, CacheEntry entry)
{
    MutexLock lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Deterministic duplicate: two tenants encoded the same
        // content in one batch. The entries are byte-identical by
        // construction; keep the first, refresh recency.
        touchLocked(key);
        return;
    }
    while (map_.size() >= capacity_) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
        ++stats_.evictions;
    }
    lru_.push_front(key);
    Slot slot;
    slot.lru_pos = lru_.begin();
    slot.entry =
        std::make_shared<const CacheEntry>(std::move(entry));
    map_.emplace(key, std::move(slot));
    ++stats_.insertions;
    stats_.entries = map_.size();
}

void
ReferenceCache::recordSavings(double device_s)
{
    MutexLock lock(mutex_);
    stats_.saved_device_s += device_s;
}

CacheStats
ReferenceCache::stats() const
{
    MutexLock lock(mutex_);
    CacheStats out = stats_;
    out.entries = map_.size();
    return out;
}

}  // namespace serve
}  // namespace edgepcc
