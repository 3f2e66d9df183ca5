/** @file Tests for the synthetic dataset, catalogue and PLY I/O. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "edgepcc/dataset/catalogue.h"
#include "edgepcc/dataset/ply_io.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/geometry/grid_hash.h"
#include "edgepcc/morton/morton.h"

namespace edgepcc {
namespace {

VideoSpec
smallSpec(std::size_t points = 12000)
{
    VideoSpec spec;
    spec.name = "unit";
    spec.seed = 99;
    spec.target_points = points;
    spec.num_frames = 10;
    return spec;
}

TEST(SyntheticHuman, FrameIsDeterministic)
{
    const SyntheticHumanVideo a(smallSpec());
    const SyntheticHumanVideo b(smallSpec());
    const VoxelCloud fa = a.frame(3);
    const VoxelCloud fb = b.frame(3);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(fa.x()[i], fb.x()[i]);
        EXPECT_EQ(fa.color(i), fb.color(i));
    }
}

TEST(SyntheticHuman, HitsTargetPointCount)
{
    const SyntheticHumanVideo video(smallSpec(20000));
    const VoxelCloud frame = video.frame(0);
    EXPECT_GT(frame.size(), 20000u * 6 / 10);
    EXPECT_LT(frame.size(), 20000u * 16 / 10);
}

TEST(SyntheticHuman, FramesAreValidAndDeduplicated)
{
    const SyntheticHumanVideo video(smallSpec());
    const VoxelCloud frame = video.frame(1);
    EXPECT_TRUE(frame.checkInvariants());
    std::set<std::uint64_t> codes;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        EXPECT_TRUE(codes
                        .insert(mortonEncode(frame.x()[i],
                                             frame.y()[i],
                                             frame.z()[i]))
                        .second);
    }
}

TEST(SyntheticHuman, ConsecutiveFramesAreTemporallyCoherent)
{
    const SyntheticHumanVideo video(smallSpec());
    const VoxelCloud f0 = video.frame(0);
    const VoxelCloud f1 = video.frame(1);
    // Most voxels of frame 1 lie within 3 voxels of frame 0: that's
    // the temporal locality the inter codec exploits (Fig. 3b).
    const GridHash hash(f0);
    std::size_t near = 0;
    for (std::size_t i = 0; i < f1.size(); ++i) {
        if (hash.findNearest(f1.x()[i], f1.y()[i], f1.z()[i], 3))
            ++near;
    }
    EXPECT_GT(static_cast<double>(near) /
                  static_cast<double>(f1.size()),
              0.95);
}

TEST(SyntheticHuman, DistantFramesMoveMore)
{
    VideoSpec spec = smallSpec();
    spec.motion_amplitude = 0.5;
    const SyntheticHumanVideo video(spec);
    const VoxelCloud f0 = video.frame(0);

    const auto mean_nn_dist = [&](const VoxelCloud &other) {
        const GridHash hash(f0);
        double sum = 0.0;
        std::size_t counted = 0;
        for (std::size_t i = 0; i < other.size(); i += 7) {
            const auto nn = hash.findNearest(
                other.x()[i], other.y()[i], other.z()[i], 8);
            if (!nn)
                continue;
            const double dx = static_cast<double>(other.x()[i]) -
                              f0.x()[*nn];
            const double dy = static_cast<double>(other.y()[i]) -
                              f0.y()[*nn];
            const double dz = static_cast<double>(other.z()[i]) -
                              f0.z()[*nn];
            sum += dx * dx + dy * dy + dz * dz;
            ++counted;
        }
        return sum / static_cast<double>(counted);
    };

    EXPECT_LT(mean_nn_dist(video.frame(1)),
              mean_nn_dist(video.frame(10)));
}

TEST(SyntheticHuman, ColorsAreSpatiallySmooth)
{
    const SyntheticHumanVideo video(smallSpec());
    const VoxelCloud frame = video.frame(0);
    const GridHash hash(frame);
    // Mean color distance between 1-voxel neighbours stays small.
    double sum = 0.0;
    std::size_t counted = 0;
    for (std::size_t i = 0; i < frame.size(); i += 11) {
        for (int dx = -1; dx <= 1; dx += 2) {
            const std::int32_t nx = frame.x()[i] + dx;
            if (nx < 0)
                continue;
            const auto nn = hash.findExact(
                static_cast<std::uint16_t>(nx), frame.y()[i],
                frame.z()[i]);
            if (!nn)
                continue;
            sum += std::abs(static_cast<double>(frame.r()[i]) -
                            frame.r()[*nn]);
            ++counted;
        }
    }
    ASSERT_GT(counted, 100u);
    EXPECT_LT(sum / static_cast<double>(counted), 12.0);
}

TEST(SyntheticHuman, UpperBodyVariantStaysInGrid)
{
    VideoSpec spec = smallSpec();
    spec.upper_body_only = true;
    const SyntheticHumanVideo video(spec);
    const VoxelCloud frame = video.frame(0);
    EXPECT_TRUE(frame.checkInvariants());
    EXPECT_GT(frame.size(), 1000u);
}

TEST(Catalogue, HasSixPaperVideos)
{
    const auto entries = paperCatalogue();
    ASSERT_EQ(entries.size(), 6u);
    EXPECT_STREQ(entries[0].name, "Redandblack");
    EXPECT_EQ(entries[0].points_per_frame, 727070u);
    EXPECT_EQ(entries[5].points_per_frame, 1486648u);
    EXPECT_TRUE(entries[4].upper_body_only);   // Andrew10 (MVUB)
    EXPECT_FALSE(entries[1].upper_body_only);  // Longdress
}

TEST(Catalogue, ScaleShrinksTargets)
{
    const auto entry = paperCatalogue()[0];
    const VideoSpec full = makeVideoSpec(entry, 1.0);
    const VideoSpec small = makeVideoSpec(entry, 0.1);
    EXPECT_EQ(full.target_points, 727070u);
    EXPECT_EQ(small.target_points, 72707u);
    EXPECT_EQ(full.seed, small.seed);  // same video, same seed
}

TEST(Catalogue, DistinctVideosGetDistinctSeeds)
{
    const auto specs = paperVideoSpecs(0.1);
    std::set<std::uint64_t> seeds;
    for (const auto &spec : specs)
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), specs.size());
}

class PlyRoundtrip : public ::testing::TestWithParam<bool>
{
};

TEST_P(PlyRoundtrip, WriteReadPreservesData)
{
    const bool binary = GetParam();
    PointCloud cloud;
    cloud.add(Vec3f(0.5f, 1.25f, -3.0f), Color{10, 20, 30});
    cloud.add(Vec3f(100.0f, 0.0f, 42.5f), Color{255, 0, 128});
    cloud.add(Vec3f(-7.75f, 33.0f, 8.125f), Color{1, 2, 3});

    const std::string path =
        std::string(::testing::TempDir()) + "/edgepcc_test_" +
        (binary ? "bin" : "ascii") + ".ply";
    ASSERT_TRUE(writePly(path, cloud, binary).isOk());

    auto loaded = readPly(path);
    ASSERT_TRUE(loaded.hasValue());
    ASSERT_EQ(loaded->size(), cloud.size());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_FLOAT_EQ(loaded->positions()[i].x,
                        cloud.positions()[i].x);
        EXPECT_FLOAT_EQ(loaded->positions()[i].z,
                        cloud.positions()[i].z);
        EXPECT_EQ(loaded->colors()[i], cloud.colors()[i]);
    }
    (void)std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Formats, PlyRoundtrip,
                         ::testing::Bool());

TEST(PlyIo, MissingFileReported)
{
    const auto result = readPly("/nonexistent/file.ply");
    EXPECT_FALSE(result.hasValue());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(PlyIo, VoxelCloudExportReimport)
{
    VoxelCloud cloud(6);
    cloud.add(0, 0, 0, 5, 6, 7);
    cloud.add(63, 63, 63, 8, 9, 10);
    cloud.add(10, 20, 30, 11, 12, 13);
    const std::string path = std::string(::testing::TempDir()) +
                             "/edgepcc_test_voxels.ply";
    ASSERT_TRUE(writePlyVoxels(path, cloud).isOk());
    auto loaded = readPlyVoxels(path, 6);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded->size(), cloud.size());
    EXPECT_TRUE(loaded->checkInvariants());
    (void)std::remove(path.c_str());
}

TEST(WorkloadEnv, ScaleParsing)
{
    // No env set in tests: falls back.
    unsetenv("EDGEPCC_SCALE");
    EXPECT_DOUBLE_EQ(workloadScaleFromEnv(0.25), 0.25);
    setenv("EDGEPCC_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(workloadScaleFromEnv(0.25), 0.5);
    setenv("EDGEPCC_SCALE", "7", 1);  // clamped to 1
    EXPECT_DOUBLE_EQ(workloadScaleFromEnv(0.25), 1.0);
    // Text that is not, in full, one finite number > 0 falls back.
    for (const char *bad :
         {"bogus", "nan", "inf", "0.5junk", "0", "-0.5", ""}) {
        setenv("EDGEPCC_SCALE", bad, 1);
        EXPECT_DOUBLE_EQ(workloadScaleFromEnv(0.25), 0.25) << bad;
    }
    unsetenv("EDGEPCC_SCALE");

    unsetenv("EDGEPCC_FRAMES");
    EXPECT_EQ(framesFromEnv(3), 3);
    setenv("EDGEPCC_FRAMES", "9", 1);
    EXPECT_EQ(framesFromEnv(3), 9);
    // Text that is not, in full, one positive int falls back.
    for (const char *bad :
         {"bogus", "99999999999", "9x", "3.7", "0", "-2", ""}) {
        setenv("EDGEPCC_FRAMES", bad, 1);
        EXPECT_EQ(framesFromEnv(5), 5) << bad;
    }
    unsetenv("EDGEPCC_FRAMES");
}

}  // namespace
}  // namespace edgepcc
