/**
 * @file
 * EdgePCC command-line tool.
 *
 * Subcommands:
 *   synth   <out_prefix>            generate synthetic PLY frames
 *   encode  <out.epcv> <in.ply...>  compress frames into a stream
 *   decode  <in.epcv> <out_prefix>  decompress to PLY frames
 *   info    <in.epcv>               inspect a stream
 *   metrics <ref.ply> <test.ply>    PSNR between two clouds
 *
 * Run `edgepcc_cli help` for the full flag reference.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/catalogue.h"
#include "edgepcc/dataset/ply_io.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/stream_file.h"

namespace {

using namespace edgepcc;

/** Tiny flag parser: --key value and --flag. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                if (i + 1 < argc &&
                    std::string(argv[i + 1]).rfind("--", 0) != 0) {
                    options_[arg.substr(2)] = argv[++i];
                } else {
                    options_[arg.substr(2)] = "true";
                }
            } else {
                positional_.push_back(arg);
            }
        }
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = options_.find(key);
        return it != options_.end() ? it->second : fallback;
    }

    /**
     * --key as a whole number >= 1 that fits an int, or `fallback`
     * when the flag is absent. Any other value prints why and gives
     * nullopt.
     */
    std::optional<int>
    getCount(const std::string &key, int fallback) const
    {
        if (!has(key))
            return fallback;
        const std::optional<int> value = wholeNumber<int>(get(key, ""));
        if (value && *value >= 1)
            return value;
        return refuse(key, "a whole number >= 1");
    }

    /**
     * --key as a finite number in (0, 1], or `fallback` when the
     * flag is absent. Any other value prints why and gives nullopt.
     */
    std::optional<double>
    getFraction(const std::string &key, double fallback) const
    {
        if (!has(key))
            return fallback;
        const std::optional<double> value = finiteNumber(get(key, ""));
        if (value && *value > 0.0 && *value <= 1.0)
            return value;
        return refuse(key, "a number in (0, 1]");
    }

    bool
    has(const std::string &key) const
    {
        return options_.count(key) > 0;
    }

  private:
    std::nullopt_t
    refuse(const std::string &key, const char *needs) const
    {
        (void)std::fprintf(stderr,
                           "edgepcc_cli: --%s needs %s, got '%s'\n",
                           key.c_str(), needs, get(key, "").c_str());
        return std::nullopt;
    }

    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

Expected<CodecConfig>
codecFromName(const std::string &name)
{
    if (std::optional<CodecConfig> config = paperConfigByName(name))
        return *std::move(config);
    return invalidArgument(
        "unknown codec '" + name +
        "' (expected tmc13|cwipc|intra|v1|v2)");
}

// ----- subcommands -------------------------------------------------

int
cmdSynth(const Args &args)
{
    if (args.positional().empty()) {
        (void)std::fprintf(stderr,
                     "usage: edgepcc_cli synth <out_prefix> "
                     "[--video NAME] [--frames N] [--scale S] "
                     "[--points N] [--ascii]\n");
        return 2;
    }
    const std::string prefix = args.positional()[0];
    const std::string video_name =
        args.get("video", "Redandblack");
    const std::optional<int> frames = args.getCount("frames", 3);
    const std::optional<double> scale = args.getFraction("scale", 0.1);
    const std::optional<int> points = args.getCount("points", 80000);
    if (!frames || !scale || !points)
        return 2;

    VideoSpec spec;
    bool found = false;
    for (const CatalogueEntry &entry : paperCatalogue()) {
        if (video_name == entry.name) {
            spec = makeVideoSpec(entry, *scale);
            found = true;
            break;
        }
    }
    if (!found) {
        spec.name = video_name;
        spec.seed = 12345;
        spec.target_points = 80000;
    }
    if (args.has("points"))
        spec.target_points = static_cast<std::size_t>(*points);

    SyntheticHumanVideo video(spec);
    for (int f = 0; f < *frames; ++f) {
        const VoxelCloud cloud = video.frame(f);
        char path[512];
        (void)std::snprintf(path, sizeof(path), "%s_%04d.ply",
                      prefix.c_str(), f);
        const Status status =
            writePlyVoxels(path, cloud, !args.has("ascii"));
        if (!status.isOk()) {
            (void)std::fprintf(stderr, "%s\n",
                         status.toString().c_str());
            return 1;
        }
        (void)std::printf("wrote %s (%zu points)\n", path, cloud.size());
    }
    return 0;
}

int
cmdEncode(const Args &args)
{
    if (args.positional().size() < 2) {
        (void)std::fprintf(stderr,
                     "usage: edgepcc_cli encode <out.epcv> "
                     "<in.ply...> [--codec tmc13|cwipc|intra|v1|"
                     "v2] [--grid-bits N] [--profile]\n");
        return 2;
    }
    auto codec = codecFromName(args.get("codec", "v1"));
    if (!codec) {
        (void)std::fprintf(stderr, "%s\n",
                     codec.status().toString().c_str());
        return 2;
    }
    const std::optional<int> grid_bits = args.getCount("grid-bits", 10);
    if (!grid_bits)
        return 2;

    VideoEncoder encoder(*codec);
    const EdgeDeviceModel model;
    std::vector<std::vector<std::uint8_t>> stream;
    std::uint64_t raw_total = 0, coded_total = 0;

    for (std::size_t i = 1; i < args.positional().size(); ++i) {
        const std::string &path = args.positional()[i];
        auto cloud = readPlyVoxels(path, *grid_bits);
        if (!cloud) {
            (void)std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         cloud.status().toString().c_str());
            return 1;
        }
        auto encoded = encoder.encode(*cloud);
        if (!encoded) {
            (void)std::fprintf(stderr, "%s: encode failed: %s\n",
                         path.c_str(),
                         encoded.status().toString().c_str());
            return 1;
        }
        raw_total += encoded->stats.raw_bytes;
        coded_total += encoded->stats.total_bytes;
        (void)std::printf(
            "%s: %zu pts -> %zu bytes (%s)", path.c_str(),
            cloud->size(), encoded->bitstream.size(),
            encoded->stats.type == Frame::Type::kPredicted ? "P"
                                                           : "I");
        if (args.has("profile")) {
            const PipelineTiming timing =
                model.evaluate(encoded->profile);
            (void)std::printf("  [%s: %.1f ms, %.3f J]",
                        model.spec().name.c_str(),
                        timing.modelSeconds() * 1e3,
                        timing.joules());
        }
        (void)std::printf("\n");
        stream.push_back(std::move(encoded->bitstream));
    }

    const Status status =
        writeStreamFile(args.positional()[0], stream);
    if (!status.isOk()) {
        (void)std::fprintf(stderr, "%s\n", status.toString().c_str());
        return 1;
    }
    (void)std::printf("%s: %zu frames, %.2fx compression\n",
                args.positional()[0].c_str(), stream.size(),
                coded_total > 0
                    ? static_cast<double>(raw_total) /
                          static_cast<double>(coded_total)
                    : 0.0);
    return 0;
}

int
cmdDecode(const Args &args)
{
    if (args.positional().size() != 2) {
        (void)std::fprintf(stderr,
                     "usage: edgepcc_cli decode <in.epcv> "
                     "<out_prefix> [--ascii]\n");
        return 2;
    }
    auto stream = readStreamFile(args.positional()[0]);
    if (!stream) {
        (void)std::fprintf(stderr, "%s\n",
                     stream.status().toString().c_str());
        return 1;
    }
    VideoDecoder decoder;
    for (std::size_t f = 0; f < stream->size(); ++f) {
        auto decoded = decoder.decode((*stream)[f]);
        if (!decoded) {
            (void)std::fprintf(stderr, "frame %zu: %s\n", f,
                         decoded.status().toString().c_str());
            return 1;
        }
        char path[512];
        (void)std::snprintf(path, sizeof(path), "%s_%04zu.ply",
                      args.positional()[1].c_str(), f);
        const Status status = writePlyVoxels(
            path, decoded->cloud, !args.has("ascii"));
        if (!status.isOk()) {
            (void)std::fprintf(stderr, "%s\n",
                         status.toString().c_str());
            return 1;
        }
        (void)std::printf("wrote %s (%zu points, %s frame)\n", path,
                    decoded->cloud.size(),
                    decoded->type == Frame::Type::kPredicted
                        ? "P"
                        : "I");
    }
    return 0;
}

int
cmdInfo(const Args &args)
{
    if (args.positional().size() != 1) {
        (void)std::fprintf(stderr, "usage: edgepcc_cli info <in.epcv>\n");
        return 2;
    }
    auto stream = readStreamFile(args.positional()[0]);
    if (!stream) {
        (void)std::fprintf(stderr, "%s\n",
                     stream.status().toString().c_str());
        return 1;
    }
    (void)std::printf("%s: %zu frames\n", args.positional()[0].c_str(),
                stream->size());
    VideoDecoder decoder;
    for (std::size_t f = 0; f < stream->size(); ++f) {
        auto decoded = decoder.decode((*stream)[f]);
        if (!decoded) {
            (void)std::printf("  frame %4zu: %8zu bytes  (undecodable: "
                        "%s)\n",
                        f, (*stream)[f].size(),
                        decoded.status().toString().c_str());
            continue;
        }
        (void)std::printf("  frame %4zu: %8zu bytes  %c  %8zu points\n",
                    f, (*stream)[f].size(),
                    decoded->type == Frame::Type::kPredicted
                        ? 'P'
                        : 'I',
                    decoded->cloud.size());
    }
    return 0;
}

int
cmdMetrics(const Args &args)
{
    if (args.positional().size() != 2) {
        (void)std::fprintf(stderr,
                     "usage: edgepcc_cli metrics <ref.ply> "
                     "<test.ply> [--grid-bits N]\n");
        return 2;
    }
    const std::optional<int> grid_bits = args.getCount("grid-bits", 10);
    if (!grid_bits)
        return 2;
    auto ref = readPlyVoxels(args.positional()[0], *grid_bits);
    auto test = readPlyVoxels(args.positional()[1], *grid_bits);
    if (!ref || !test) {
        (void)std::fprintf(stderr, "%s\n",
                     (!ref ? ref.status() : test.status())
                         .toString()
                         .c_str());
        return 1;
    }
    const AttrQuality attr = attributePsnr(*ref, *test);
    const GeometryQuality geom = geometryPsnrD1(*ref, *test);
    (void)std::printf("points: ref=%zu test=%zu\n", ref->size(),
                test->size());
    (void)std::printf("attribute PSNR : %.2f dB (mse %.4f, %zu matched, "
                "%zu unmatched)\n",
                attr.psnr, attr.mse, attr.matched_points,
                attr.unmatched_points);
    (void)std::printf("geometry  PSNR : %.2f dB (D1 mse %.6f)\n",
                geom.psnr, geom.mse);
    return 0;
}

int
cmdHelp()
{
    (void)std::printf(
        "EdgePCC CLI — Morton-parallel point cloud compression\n\n"
        "  edgepcc_cli synth  <out_prefix> [--video NAME] "
        "[--frames N] [--scale S] [--points N] [--ascii]\n"
        "  edgepcc_cli encode <out.epcv> <in.ply...> "
        "[--codec tmc13|cwipc|intra|v1|v2] [--grid-bits N] "
        "[--profile]\n"
        "  edgepcc_cli decode <in.epcv> <out_prefix> [--ascii]\n"
        "  edgepcc_cli info   <in.epcv>\n"
        "  edgepcc_cli metrics <ref.ply> <test.ply> "
        "[--grid-bits N]\n\n"
        "Codecs: tmc13 (baseline intra), cwipc (baseline inter),\n"
        "        intra / v1 / v2 (the paper's proposed designs).\n"
        "Numbers: N is a whole number >= 1, S is in (0, 1]; any\n"
        "         other value exits 2.\n");
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp();
    const std::string command = argv[1];
    const Args args(argc, argv, 2);
    if (command == "synth")
        return cmdSynth(args);
    if (command == "encode")
        return cmdEncode(args);
    if (command == "decode")
        return cmdDecode(args);
    if (command == "info")
        return cmdInfo(args);
    if (command == "metrics")
        return cmdMetrics(args);
    return cmdHelp();
}
