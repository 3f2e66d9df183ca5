#include "edgepcc/dataset/catalogue.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "edgepcc/common/parse_number.h"

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

double
workloadScaleFromEnv(double fallback)
{
    const char *text = std::getenv("EDGEPCC_SCALE");
    const std::optional<double> value =
        text ? finiteNumber(text) : std::nullopt;
    if (!value || *value <= 0.0)
        return fallback;
    return std::min(*value, 1.0);
}

int
framesFromEnv(int fallback)
{
    const char *text = std::getenv("EDGEPCC_FRAMES");
    const std::optional<int> value =
        text ? wholeNumber<int>(text) : std::nullopt;
    return value && *value > 0 ? *value : fallback;
}

}  // namespace edgepcc
