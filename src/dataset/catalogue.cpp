#include "edgepcc/dataset/catalogue.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace edgepcc {

std::vector<CatalogueEntry>
paperCatalogue()
{
    // Paper Table I (8iVFB: full bodies; MVUB: upper bodies).
    return {
        {"Redandblack", 300, 727070, false},
        {"Longdress", 300, 834315, false},
        {"Loot", 300, 793821, false},
        {"Soldier", 300, 1075299, false},
        {"Andrew10", 318, 1298699, true},
        {"Phil10", 245, 1486648, true},
    };
}

VideoSpec
makeVideoSpec(const CatalogueEntry &entry, double scale)
{
    VideoSpec spec;
    spec.name = entry.name;
    // Stable per-video seed derived from the name.
    std::uint64_t seed = 0xed9e5cc1ull;
    for (const char *c = entry.name; *c; ++c)
        seed = seed * 131 + static_cast<std::uint64_t>(*c);
    spec.seed = seed;
    spec.num_frames = entry.num_frames;
    spec.target_points = static_cast<std::size_t>(
        static_cast<double>(entry.points_per_frame) * scale);
    spec.target_points =
        std::max<std::size_t>(spec.target_points, 1000);
    spec.upper_body_only = entry.upper_body_only;
    return spec;
}

std::vector<VideoSpec>
paperVideoSpecs(double scale)
{
    std::vector<VideoSpec> specs;
    for (const CatalogueEntry &entry : paperCatalogue())
        specs.push_back(makeVideoSpec(entry, scale));
    return specs;
}

namespace {

/** Env var `name` when all of its text reads as one T. */
template <typename T>
std::optional<T>
envValue(const char *name)
{
    const char *text = std::getenv(name);
    if (!text)
        return std::nullopt;
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

}  // namespace

double
workloadScaleFromEnv(double fallback)
{
    const std::optional<double> value =
        envValue<double>("EDGEPCC_SCALE");
    if (!value || !std::isfinite(*value) || *value <= 0.0)
        return fallback;
    return std::min(*value, 1.0);
}

int
framesFromEnv(int fallback)
{
    const std::optional<int> value = envValue<int>("EDGEPCC_FRAMES");
    return value && *value > 0 ? *value : fallback;
}

}  // namespace edgepcc
