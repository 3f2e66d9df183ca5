#include "edgepcc/dataset/synthetic_human.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "edgepcc/common/rng.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/radix_sort.h"

namespace edgepcc {

namespace {

constexpr double kPi = std::numbers::pi;

/** One posed capsule: segment p0..p1 with radius r (voxels). */
struct Capsule {
    Vec3f p0;
    Vec3f p1;
    float r = 1.0f;

    float length() const { return (p1 - p0).norm(); }

    double
    area() const
    {
        const double radius = r;
        return 2.0 * kPi * radius *
                   static_cast<double>(length()) +
               4.0 * kPi * radius * radius;
    }
};

/** Skeleton part ids. */
enum Part {
    kTorso = 0,
    kHead,
    kUpperArmL,
    kForearmL,
    kUpperArmR,
    kForearmR,
    kThighL,
    kShinL,
    kThighR,
    kShinR,
    kNumParts,
};

/** Rotates `p` about `pivot` in the (y, z) plane by `angle`. */
Vec3f
rotateX(const Vec3f &p, const Vec3f &pivot, double angle)
{
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    const double y = p.y - pivot.y;
    const double z = p.z - pivot.z;
    return Vec3f(p.x,
                 pivot.y + static_cast<float>(c * y - s * z),
                 pivot.z + static_cast<float>(s * y + c * z));
}

/** Joint swing angles for one frame. */
struct Pose {
    double arm_l = 0.0;
    double arm_r = 0.0;
    double forearm_l = 0.0;
    double forearm_r = 0.0;
    double leg_l = 0.0;
    double leg_r = 0.0;
    double head_nod = 0.0;
    double sway = 0.0;  ///< lateral translation in voxels
};

Pose
poseAt(const VideoSpec &spec, int frame)
{
    Pose pose;
    const double phase =
        2.0 * kPi * static_cast<double>(frame) / spec.motion_period;
    const double amp = spec.motion_amplitude;
    pose.arm_l = amp * std::sin(phase);
    pose.arm_r = -amp * std::sin(phase);
    pose.forearm_l = 0.6 * amp * std::sin(phase + 0.7);
    pose.forearm_r = -0.6 * amp * std::sin(phase + 0.7);
    pose.leg_l = 0.5 * amp * std::sin(phase + kPi);
    pose.leg_r = -0.5 * amp * std::sin(phase + kPi);
    pose.head_nod = 0.15 * amp * std::sin(0.5 * phase);
    pose.sway = spec.sway_voxels * std::sin(0.5 * phase);
    return pose;
}

/**
 * Builds the posed skeleton for one frame. `height` is the body
 * height in voxels; the body stands centered at x=z=512.
 */
std::vector<Capsule>
buildSkeleton(const VideoSpec &spec, double height, int frame)
{
    const Pose pose = poseAt(spec, frame);
    const float h = static_cast<float>(height);
    const float cx = 512.0f + static_cast<float>(pose.sway);
    const float cz = 512.0f;
    const float base = spec.upper_body_only
                           ? 40.0f - 0.40f * h  // crop below torso
                           : 40.0f;

    const auto at = [&](float dx, float fy, float dz) {
        return Vec3f(cx + dx * h, base + fy * h, cz + dz * h);
    };

    // The MVUB upper bodies fill a similar voxel count with half the
    // body, so the parts are bulkier.
    const float bulk = spec.upper_body_only ? 1.55f : 1.0f;

    std::vector<Capsule> parts(kNumParts);
    parts[kTorso] = {at(0.0f, 0.50f, 0.0f), at(0.0f, 0.80f, 0.0f),
                     0.105f * h * bulk};
    parts[kHead] = {at(0.0f, 0.865f, 0.0f),
                    at(0.0f, 0.925f, 0.0f), 0.055f * h * bulk};
    parts[kHead].p1 =
        rotateX(parts[kHead].p1, parts[kHead].p0, pose.head_nod);

    const float arm_r_vox = 0.034f * h * bulk;
    const float fore_r_vox = 0.029f * h * bulk;
    const Vec3f shoulder_l = at(0.125f * bulk, 0.775f, 0.0f);
    const Vec3f shoulder_r = at(-0.125f * bulk, 0.775f, 0.0f);
    Vec3f elbow_l = at(0.145f * bulk, 0.615f, 0.0f);
    Vec3f elbow_r = at(-0.145f * bulk, 0.615f, 0.0f);
    Vec3f wrist_l = at(0.150f * bulk, 0.47f, 0.02f);
    Vec3f wrist_r = at(-0.150f * bulk, 0.47f, 0.02f);
    elbow_l = rotateX(elbow_l, shoulder_l, pose.arm_l);
    wrist_l = rotateX(wrist_l, shoulder_l, pose.arm_l);
    wrist_l = rotateX(wrist_l, elbow_l, pose.forearm_l);
    elbow_r = rotateX(elbow_r, shoulder_r, pose.arm_r);
    wrist_r = rotateX(wrist_r, shoulder_r, pose.arm_r);
    wrist_r = rotateX(wrist_r, elbow_r, pose.forearm_r);
    parts[kUpperArmL] = {shoulder_l, elbow_l, arm_r_vox};
    parts[kForearmL] = {elbow_l, wrist_l, fore_r_vox};
    parts[kUpperArmR] = {shoulder_r, elbow_r, arm_r_vox};
    parts[kForearmR] = {elbow_r, wrist_r, fore_r_vox};

    if (spec.upper_body_only) {
        // No legs: keep tiny stubs merged into the torso base so
        // part indices stay stable; give them zero-ish area.
        const Capsule stub{at(0.0f, 0.50f, 0.0f),
                           at(0.0f, 0.50f, 0.0f), 0.001f * h};
        parts[kThighL] = parts[kShinL] = stub;
        parts[kThighR] = parts[kShinR] = stub;
        return parts;
    }

    const float thigh_r_vox = 0.050f * h;
    const float shin_r_vox = 0.037f * h;
    const Vec3f hip_l = at(0.062f, 0.49f, 0.0f);
    const Vec3f hip_r = at(-0.062f, 0.49f, 0.0f);
    Vec3f knee_l = at(0.068f, 0.27f, 0.0f);
    Vec3f knee_r = at(-0.068f, 0.27f, 0.0f);
    Vec3f ankle_l = at(0.070f, 0.05f, 0.0f);
    Vec3f ankle_r = at(-0.070f, 0.05f, 0.0f);
    knee_l = rotateX(knee_l, hip_l, pose.leg_l);
    ankle_l = rotateX(ankle_l, hip_l, pose.leg_l);
    knee_r = rotateX(knee_r, hip_r, pose.leg_r);
    ankle_r = rotateX(ankle_r, hip_r, pose.leg_r);
    parts[kThighL] = {hip_l, knee_l, thigh_r_vox};
    parts[kShinL] = {knee_l, ankle_l, shin_r_vox};
    parts[kThighR] = {hip_r, knee_r, thigh_r_vox};
    parts[kShinR] = {knee_r, ankle_r, shin_r_vox};
    return parts;
}

/** Orthonormal basis (n1, n2) perpendicular to `axis`. The limbs
 *  are never parallel to +x, so (1,0,0) is a safe reference. */
void
capsuleBasis(const Vec3f &axis, Vec3f &n1, Vec3f &n2)
{
    const Vec3f a = axis.normalized();
    const Vec3f ref(1.0f, 0.0f, 0.0f);
    n1 = a.cross(ref).normalized();
    if (n1.norm() < 0.5f)
        n1 = a.cross(Vec3f(0.0f, 0.0f, 1.0f)).normalized();
    n2 = a.cross(n1).normalized();
}

/** 3D value-noise in [-1, 1] with two octaves. */
double
valueNoise(const Vec3f &p, std::uint64_t seed, double scale)
{
    const auto lattice = [seed](std::int64_t x, std::int64_t y,
                                std::int64_t z) {
        std::uint64_t h = seed;
        h ^= static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
        h ^= static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4fULL;
        h ^= static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ULL;
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 32;
        return static_cast<double>(h & 0xffffffu) /
                   static_cast<double>(0xffffffu) * 2.0 -
               1.0;
    };
    const double fx = static_cast<double>(p.x) * scale;
    const double fy = static_cast<double>(p.y) * scale;
    const double fz = static_cast<double>(p.z) * scale;
    const auto ix = static_cast<std::int64_t>(std::floor(fx));
    const auto iy = static_cast<std::int64_t>(std::floor(fy));
    const auto iz = static_cast<std::int64_t>(std::floor(fz));
    const double tx = fx - std::floor(fx);
    const double ty = fy - std::floor(fy);
    const double tz = fz - std::floor(fz);
    double value = 0.0;
    for (int corner = 0; corner < 8; ++corner) {
        const int dx = corner & 1;
        const int dy = (corner >> 1) & 1;
        const int dz = (corner >> 2) & 1;
        const double weight = (dx ? tx : 1.0 - tx) *
                              (dy ? ty : 1.0 - ty) *
                              (dz ? tz : 1.0 - tz);
        value += weight * lattice(ix + dx, iy + dy, iz + dz);
    }
    return value;
}

std::uint8_t
clampColor(double v)
{
    return static_cast<std::uint8_t>(
        std::clamp(v, 0.0, 255.0));
}

/** Deterministic per-(sample, frame) noise in [-1, 1]. */
double
frameNoise(std::uint64_t seed, std::size_t sample, int frame)
{
    SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(sample) << 20) ^
                  static_cast<std::uint64_t>(frame));
    return static_cast<double>(sm.next() & 0xffffu) / 65535.0 * 2.0 -
           1.0;
}

}  // namespace

SyntheticHumanVideo::SyntheticHumanVideo(VideoSpec spec)
    : spec_(std::move(spec))
{
    buildSamples();
}

void
SyntheticHumanVideo::buildSamples()
{
    // Choose the body height so the voxelized surface is close to
    // target_points. A surface of area A voxel^2 occupies ~1.25*A
    // voxels; solve for the height, generate once, correct once.
    double height = 900.0;
    for (int calibration = 0; calibration < 3; ++calibration) {
        const std::vector<Capsule> rest =
            buildSkeleton(spec_, height, 0);
        double area = 0.0;
        for (const Capsule &part : rest)
            area += part.area();
        const double wanted_area =
            static_cast<double>(spec_.target_points) / 1.10;
        double next =
            height * std::sqrt(wanted_area / std::max(area, 1.0));
        next = std::clamp(next, 60.0, 930.0);
        if (std::abs(next - height) / height < 0.01) {
            height = next;
            break;
        }
        height = next;
    }
    height_ = height;

    const std::vector<Capsule> rest =
        buildSkeleton(spec_, height_, 0);
    double total_area = 0.0;
    for (const Capsule &part : rest)
        total_area += part.area();

    // ~4 samples per voxel^2 of surface gives >98% voxel coverage.
    const double samples_per_area = 4.0;

    Rng rng(spec_.seed);

    // Per-part base colors: skin for head/arms, palette for cloth.
    Color part_color[kNumParts];
    const Color skin{
        static_cast<std::uint8_t>(185 + rng.bounded(40)),
        static_cast<std::uint8_t>(140 + rng.bounded(40)),
        static_cast<std::uint8_t>(110 + rng.bounded(40))};
    const auto cloth = [&rng]() {
        return Color{static_cast<std::uint8_t>(40 + rng.bounded(180)),
                     static_cast<std::uint8_t>(40 + rng.bounded(180)),
                     static_cast<std::uint8_t>(40 + rng.bounded(180))};
    };
    const Color torso_color = cloth();
    const Color leg_color = cloth();
    part_color[kTorso] = torso_color;
    part_color[kHead] = skin;
    part_color[kUpperArmL] = torso_color;
    part_color[kUpperArmR] = torso_color;
    part_color[kForearmL] = skin;
    part_color[kForearmR] = skin;
    part_color[kThighL] = leg_color;
    part_color[kThighR] = leg_color;
    part_color[kShinL] = leg_color;
    part_color[kShinR] = leg_color;

    const Vec3f light = Vec3f(0.4f, 0.8f, 0.45f).normalized();

    samples_.clear();
    for (int part = 0; part < kNumParts; ++part) {
        const Capsule &capsule =
            rest[static_cast<std::size_t>(part)];
        const double area = capsule.area();
        const auto count = static_cast<std::size_t>(
            area * samples_per_area);
        if (count == 0)
            continue;
        const double side_area =
            2.0 * kPi * static_cast<double>(capsule.r) *
            static_cast<double>(capsule.length());
        const double side_fraction = side_area / area;

        Vec3f axis = capsule.p1 - capsule.p0;
        Vec3f n1, n2;
        capsuleBasis(axis, n1, n2);

        for (std::size_t k = 0; k < count; ++k) {
            Sample sample;
            sample.part = part;
            Vec3f position;
            Vec3f normal;
            if (rng.uniform() < side_fraction) {
                sample.region = 0;
                sample.t = static_cast<float>(rng.uniform());
                sample.theta = static_cast<float>(
                    rng.uniform(0.0, 2.0 * kPi));
                const Vec3f radial =
                    n1 * std::cos(sample.theta) +
                    n2 * std::sin(sample.theta);
                position = capsule.p0 + axis * sample.t +
                           radial * capsule.r;
                normal = radial;
            } else {
                // Uniform direction on the hemisphere of one cap.
                Vec3f dir;
                do {
                    dir = Vec3f(
                        static_cast<float>(rng.uniform(-1, 1)),
                        static_cast<float>(rng.uniform(-1, 1)),
                        static_cast<float>(rng.uniform(-1, 1)));
                } while (dir.squaredNorm() > 1.0f ||
                         dir.squaredNorm() < 1e-6f);
                dir = dir.normalized();
                const Vec3f a = axis.normalized();
                const bool cap1 = rng.uniform() < 0.5;
                if (cap1 && dir.dot(a) < 0.0f)
                    dir = dir * -1.0f;
                if (!cap1 && dir.dot(a) > 0.0f)
                    dir = dir * -1.0f;
                sample.region = cap1 ? 2 : 1;
                sample.dir[0] = dir.x;
                sample.dir[1] = dir.y;
                sample.dir[2] = dir.z;
                position = (cap1 ? capsule.p1 : capsule.p0) +
                           dir * capsule.r;
                normal = dir;
            }

            // Color from the rest-pose position so it tracks the
            // surface across frames.
            const Color base =
                part_color[static_cast<std::size_t>(part)];
            const double noise_coarse =
                valueNoise(position, spec_.seed, 1.0 / 48.0);
            const double noise_fine =
                valueNoise(position, spec_.seed ^ 0x5151,
                           1.0 / 12.0);
            const double shade =
                0.86 +
                0.28 * static_cast<double>(std::max(
                           0.0f, normal.dot(light)));
            const double wobble =
                14.0 * noise_coarse + 6.0 * noise_fine;
            sample.color = Color{
                clampColor(base.r * shade + wobble),
                clampColor(base.g * shade + wobble),
                clampColor(base.b * shade + wobble)};
            samples_.push_back(sample);
        }
    }
}

VoxelCloud
SyntheticHumanVideo::frame(int index) const
{
    const std::vector<Capsule> skeleton =
        buildSkeleton(spec_, height_, index);
    const std::uint32_t grid = 1u << spec_.grid_bits;

    // Voxelize all samples, then dedupe via Morton sort. The sort
    // carries each sample's color, packed 0xRRGGBB, as its payload;
    // it is stable, so each voxel keeps its lowest-index sample's.
    std::vector<std::uint64_t> keys(samples_.size());
    std::vector<std::uint32_t> rgb(samples_.size());

    for (std::size_t k = 0; k < samples_.size(); ++k) {
        const Sample &sample = samples_[k];
        const Capsule &capsule =
            skeleton[static_cast<std::size_t>(sample.part)];
        Vec3f position;
        if (sample.region == 0) {
            const Vec3f axis = capsule.p1 - capsule.p0;
            Vec3f n1, n2;
            capsuleBasis(axis, n1, n2);
            const Vec3f radial = n1 * std::cos(sample.theta) +
                                 n2 * std::sin(sample.theta);
            position = capsule.p0 + axis * sample.t +
                       radial * capsule.r;
        } else {
            const Vec3f dir(sample.dir[0], sample.dir[1],
                            sample.dir[2]);
            position = (sample.region == 2 ? capsule.p1
                                           : capsule.p0) +
                       dir * capsule.r;
        }
        const auto vx = static_cast<std::uint32_t>(std::clamp(
            std::lround(position.x), 0l,
            static_cast<long>(grid - 1)));
        const auto vy = static_cast<std::uint32_t>(std::clamp(
            std::lround(position.y), 0l,
            static_cast<long>(grid - 1)));
        const auto vz = static_cast<std::uint32_t>(std::clamp(
            std::lround(position.z), 0l,
            static_cast<long>(grid - 1)));
        keys[k] = mortonEncode(vx, vy, vz);

        // Temporal appearance drift: real captures re-estimate
        // exposure/shading every frame, so the color field wobbles
        // smoothly in space *and* time. This is what gives the
        // inter-frame reuse threshold a real distribution of block
        // distances to cut through (paper Fig. 3b / Fig. 10b).
        const Vec3f drift_pos =
            position +
            Vec3f(static_cast<float>(index) * 9.3f,
                  static_cast<float>(index) * 4.7f,
                  static_cast<float>(index) * -6.1f);
        const double shading_drift =
            spec_.shading_drift *
            valueNoise(drift_pos, spec_.seed ^ 0x77aa, 1.0 / 40.0);
        const double noise =
            spec_.color_noise * frameNoise(spec_.seed, k, index);
        const Color &c = sample.color;
        const std::uint32_t r = clampColor(c.r + shading_drift + noise);
        const std::uint32_t g = clampColor(c.g + shading_drift + noise);
        const std::uint32_t b = clampColor(c.b + shading_drift + noise);
        rgb[k] = (r << 16) | (g << 8) | b;
    }

    radixSortKeysValues(keys.data(), rgb.data(), keys.size(),
                        3 * spec_.grid_bits);

    VoxelCloud cloud(spec_.grid_bits);
    cloud.reserve(keys.size() / 3);
    std::uint64_t prev = ~std::uint64_t{0};
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == prev)
            continue;
        prev = keys[i];
        const MortonXyz xyz = mortonDecode(keys[i]);
        cloud.add(static_cast<std::uint16_t>(xyz.x),
                  static_cast<std::uint16_t>(xyz.y),
                  static_cast<std::uint16_t>(xyz.z),
                  static_cast<std::uint8_t>(rgb[i] >> 16),
                  static_cast<std::uint8_t>(rgb[i] >> 8),
                  static_cast<std::uint8_t>(rgb[i]));
    }
    return cloud;
}

}  // namespace edgepcc
