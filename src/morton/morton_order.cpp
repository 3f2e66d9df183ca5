#include "edgepcc/morton/morton_order.h"

#include "edgepcc/common/trace.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/parallel_for.h"
#include "edgepcc/parallel/radix_sort.h"

namespace edgepcc {

MortonOrder
computeMortonOrder(const VoxelCloud &cloud, WorkRecorder *recorder)
{
    ScopedTrace trace("morton.order");
    const std::size_t n = cloud.size();
    MortonOrder order;
    order.depth = cloud.gridBits();

    // SoA end to end: codes and the permutation are generated
    // directly into the result arrays and sorted together, with no
    // intermediate (key, index) AoS staging buffer. The generate
    // kernel is SIMD-dispatched per chunk (platform/simd.h).
    order.codes.resize(n);
    order.perm.resize(n);
    const std::uint16_t *x = cloud.x().data();
    const std::uint16_t *y = cloud.y().data();
    const std::uint16_t *z = cloud.z().data();
    std::uint64_t *codes = order.codes.data();
    std::uint32_t *perm = order.perm.data();

    parallelForChunks(0, n, [&](std::size_t lo, std::size_t hi) {
        mortonEncodeBatch(x + lo, y + lo, z + lo, hi - lo,
                          codes + lo);
        for (std::size_t i = lo; i < hi; ++i)
            perm[i] = static_cast<std::uint32_t>(i);
    });
    recordKernel(recorder,
                 KernelWork{.name = "morton.generate",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            // ~6 shift/or ops per axis, 3 axes.
                            .ops = n * 18,
                            .bytes = n * (6 + 12)});

    const int key_bits = 3 * cloud.gridBits();
    radixSortKeysValues(codes, perm, n, key_bits);
    const auto passes =
        static_cast<std::uint64_t>((key_bits + 7) / 8);
    recordKernel(recorder,
                 KernelWork{.name = "morton.sort",
                            .resource = ExecResource::kGpu,
                            .invocations = passes,
                            .items = n,
                            .ops = n * passes * 4,
                            .bytes = n * passes * 2 * 12});
    return order;
}

VoxelCloud
applyOrder(const VoxelCloud &cloud, const MortonOrder &order,
           WorkRecorder *recorder)
{
    ScopedTrace trace("morton.gather");
    const std::size_t n = cloud.size();
    VoxelCloud out(cloud.gridBits());
    out.resize(n);
    parallelFor(0, n, [&](std::size_t i) {
        const std::uint32_t src = order.perm[i];
        out.mutableX()[i] = cloud.x()[src];
        out.mutableY()[i] = cloud.y()[src];
        out.mutableZ()[i] = cloud.z()[src];
        out.mutableR()[i] = cloud.r()[src];
        out.mutableG()[i] = cloud.g()[src];
        out.mutableB()[i] = cloud.b()[src];
    });
    recordKernel(recorder,
                 KernelWork{.name = "morton.gather",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 6,
                            .bytes = n * 2 * 9});
    return out;
}

}  // namespace edgepcc
