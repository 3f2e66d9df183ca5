/**
 * @file
 * Per-frame bump allocator for hot-kernel scratch memory.
 *
 * The SoA kernel refactor (docs/PERFORMANCE.md "Memory layout")
 * replaced per-call `std::vector` scratch with arena-backed arrays:
 * the encoder/decoder owns one `FrameArena`, resets it at the start
 * of every frame, and kernels carve scratch out of it through the
 * thread-local binding below. After the first frame the arena's
 * blocks are warm, so steady-state encode performs zero scratch
 * heap allocations.
 *
 * Lifetime rules (enforced by convention, documented in
 * docs/PERFORMANCE.md):
 *
 *  - Arena memory is valid until the next `reset()` — i.e. for the
 *    current frame only. Nothing arena-backed may escape the
 *    encode/decode call that allocated it.
 *  - `reset()` keeps the blocks; `release()` returns them to the
 *    heap (used by tests and by long-idle sessions).
 *  - All upstream memory comes from `::operator new`, so the
 *    countdown-allocation-failure contract from the overload work
 *    (tests/test_robustness.cpp) covers arena growth too: an
 *    exhausted heap surfaces as std::bad_alloc, which the
 *    encode/decode entry points turn into kResourceExhausted.
 *  - A FrameArena is single-threaded. Kernels that parallelize must
 *    carve scratch on the calling thread before fanning out.
 */

#ifndef EDGEPCC_PLATFORM_ARENA_H
#define EDGEPCC_PLATFORM_ARENA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace edgepcc {

/** Chunked bump allocator; see the file comment for the contract. */
class FrameArena
{
  public:
    /** Default granularity of upstream blocks (grown geometrically;
     *  oversized requests get a dedicated block). */
    static constexpr std::size_t kDefaultBlockBytes = 1u << 20;

    explicit FrameArena(
        std::size_t block_bytes = kDefaultBlockBytes);
    ~FrameArena();

    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;
    FrameArena(FrameArena &&other) noexcept;
    FrameArena &operator=(FrameArena &&other) noexcept;

    /**
     * `bytes` of storage aligned to `align` (a power of two), valid
     * until the next reset(). Throws std::bad_alloc only when a
     * fresh upstream block cannot be obtained.
     */
    void *allocate(std::size_t bytes,
                   std::size_t align = alignof(std::max_align_t));

    /** Typed scratch array of `count` Ts (T trivially destructible;
     *  contents uninitialized). */
    template <typename T>
    T *
    allocateArray(std::size_t count)
    {
        return static_cast<T *>(
            allocate(count * sizeof(T), alignof(T)));
    }

    /** Recycles all blocks for the next frame (no heap traffic). */
    void reset();

    /** Returns every block to the heap. */
    void release();

    /** Bytes handed out since the last reset(). */
    std::size_t bytesUsed() const { return bytes_used_; }

    /** Total bytes currently reserved from the heap. */
    std::size_t bytesReserved() const { return bytes_reserved_; }

    /** Number of upstream `::operator new` block allocations over
     *  the arena's lifetime — the steady-state-zero-alloc tests pin
     *  this. */
    std::size_t upstreamBlockCount() const { return blocks_.size(); }

  private:
    struct Block {
        std::uint8_t *data = nullptr;
        std::size_t size = 0;
    };

    Block &growFor(std::size_t bytes);

    std::vector<Block> blocks_;
    std::size_t block_bytes_;
    std::size_t active_ = 0;  ///< index of the block being bumped
    std::size_t cursor_ = 0;  ///< offset into the active block
    std::size_t bytes_used_ = 0;
    std::size_t bytes_reserved_ = 0;
};

/**
 * The frame arena bound to this thread, or nullptr outside an
 * encode/decode frame. Kernels use this to pick arena scratch over
 * heap vectors without threading a parameter through every layer.
 */
FrameArena *currentFrameArena();

/**
 * Scratch of `count` Ts: carved from `arena` when one is bound,
 * else held by `heap`, sized exactly so asan sees an overread.
 */
template <typename T>
T *
scratchArray(FrameArena *arena, std::vector<T> &heap,
             std::size_t count)
{
    if (arena != nullptr)
        return arena->allocateArray<T>(count);
    heap.resize(count);
    return heap.data();
}

/** RAII binding of `arena` as the thread's current frame arena
 *  (restores the previous binding on destruction). The encoder and
 *  decoder entry points bind their member arena around each frame. */
class ScopedFrameArena
{
  public:
    explicit ScopedFrameArena(FrameArena *arena);
    ~ScopedFrameArena();

    ScopedFrameArena(const ScopedFrameArena &) = delete;
    ScopedFrameArena &operator=(const ScopedFrameArena &) = delete;

  private:
    FrameArena *previous_;
};

}  // namespace edgepcc

#endif  // EDGEPCC_PLATFORM_ARENA_H
