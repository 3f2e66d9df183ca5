#include "edgepcc/octree/parallel_builder.h"

#include <array>

#include "edgepcc/common/trace.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/platform/arena.h"

namespace edgepcc {

namespace {

/** What one sweep found. */
struct Sweep {
    std::size_t parents = 0;   ///< nodes of the level above
    std::size_t distinct = 0;  ///< codes unequal to their predecessor
    bool descending = false;   ///< some code below its predecessor
};

/**
 * The run-boundary sweep over one level's `n` ascending codes: each
 * run of equal `code >> 3` becomes one node of the level above,
 * whose code goes to `parents` and whose occupancy byte collects bit
 * `code & 7` of every child; a repeated code only sets its bit
 * again. The loop is branch-free: every child rewrites its parent's
 * slot. `parents` may be `codes` itself, since no slot past child
 * i's index is written before child i is read.
 */
Sweep
sweepLevel(const std::uint64_t *codes, std::size_t n,
           std::uint64_t *parents, std::uint8_t *bytes)
{
    Sweep sweep;
    std::uint64_t previous = codes[0];
    std::size_t slot = 0;  // the parent being filled
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t code = codes[i];
        const bool fresh = (code >> 3) != (previous >> 3);
        sweep.distinct += i == 0 || code != previous;
        sweep.descending |= code < previous;
        previous = code;
        slot += fresh;
        byte = static_cast<std::uint8_t>((fresh ? 0u : byte) |
                                         1u << (code & 7));
        parents[slot] = code >> 3;
        bytes[slot] = byte;
    }
    sweep.parents = slot + 1;
    return sweep;
}

}  // namespace

Expected<std::vector<std::uint8_t>>
buildParallelOctree(const std::vector<std::uint64_t> &sorted_codes,
                    int depth, WorkRecorder *recorder)
{
    const std::size_t n = sorted_codes.size();
    if (n == 0)
        return invalidArgument("buildParallelOctree: no codes");
    if (depth < 1 || depth > kMaxMortonBitsPerAxis)
        return invalidArgument("buildParallelOctree: bad depth");

    ScopedTrace levels_trace("octree.build_levels");
    FrameArena local_arena;
    FrameArena *arena = currentFrameArena();
    if (arena == nullptr)
        arena = &local_arena;

    // Level l's occupancy bytes, l < depth. The first sweep reads
    // the leaves; each later one runs in place over `codes`, which
    // holds the level below.
    struct Level {
        const std::uint8_t *bytes = nullptr;
        std::size_t size = 0;
    };
    std::array<Level, kMaxMortonBitsPerAxis> levels;
    std::uint64_t *codes = arena->allocateArray<std::uint64_t>(n);
    std::uint8_t *bytes = arena->allocateArray<std::uint8_t>(n);
    const Sweep leaves =
        sweepLevel(sorted_codes.data(), n, codes, bytes);
    if (leaves.descending)
        return invalidArgument(
            "buildParallelOctree: codes not sorted");
    std::size_t size = leaves.parents;
    levels[static_cast<std::size_t>(depth) - 1] = {bytes, size};
    std::size_t branch_nodes = size;
    for (int level = depth - 2; level >= 0; --level) {
        bytes = arena->allocateArray<std::uint8_t>(size);
        size = sweepLevel(codes, size, codes, bytes).parents;
        levels[static_cast<std::size_t>(level)] = {bytes, size};
        branch_nodes += size;
    }
    if (size != 1 || codes[0] != 0)
        return invalidArgument(
            "buildParallelOctree: codes wider than the depth");

    // Work counts of the GPU formulation: per level a flag, scan and
    // gather over the level below, then a parent-link scan.
    const std::size_t total = branch_nodes + leaves.distinct;
    recordKernel(recorder,
                 KernelWork{.name = "octree.par_levels",
                            .resource = ExecResource::kGpu,
                            .invocations =
                                static_cast<std::uint64_t>(depth) + 1,
                            .items = total,
                            .ops = n * 4 + (total - 1) * 5,
                            .bytes = total * 8 * 3});
    recordKernel(recorder,
                 KernelWork{.name = "octree.par_parents",
                            .resource = ExecResource::kGpu,
                            .invocations =
                                static_cast<std::uint64_t>(depth),
                            .items = total,
                            .ops = (total - 1) * 6,
                            .bytes = total * 12});
    levels_trace.stop();

    // Paper Algorithm 1 merges every non-root node's bit into its
    // parent's byte, an atomic-OR kernel on device; the sweeps did
    // that, so what is left is laying the levels out root first.
    ScopedTrace merge_trace("octree.occupancy_merge");
    std::vector<std::uint8_t> occupancy;
    occupancy.reserve(branch_nodes);
    for (int level = 0; level < depth; ++level) {
        const Level &row = levels[static_cast<std::size_t>(level)];
        occupancy.insert(occupancy.end(), row.bytes,
                         row.bytes + row.size);
    }
    recordKernel(recorder,
                 KernelWork{.name = "octree.occupancy_merge",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = total - 1,
                            .ops = (total - 1) * 3,
                            .bytes = (total - 1) * 10});
    return occupancy;
}

}  // namespace edgepcc
