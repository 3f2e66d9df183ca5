/**
 * @file
 * Reproduces the paper's evaluation grid in one pass: each of the
 * six videos is encoded and decoded once with each of the five
 * designs (TMC13, CWIPC, Intra-Only, Intra-Inter-V1, -V2) and
 * priced on the Jetson model. Every table below reads those runs
 * and prints its paper anchors:
 *
 * - Fig. 2 (right): stage breakdown of the prior (TMC13-like)
 *   pipeline on Redandblack's frame 0.
 * - Fig. 8a: encode latency with the geometry/attribute split. The
 *   paper's per-frame values: TMC13 ~4152 ms (1552 + 2600), CWIPC
 *   ~4229 ms, Intra-Only ~95 ms (42 + 53), V1 ~124 ms (41 + 83),
 *   V2 ~121 ms (43 + 78).
 * - Fig. 8b: energy per frame. The paper's: TMC13 11.3 J, CWIPC
 *   19.8 J, Intra-Only 0.38 J, V1 0.52 J, V2 0.50 J; the model's
 *   rail powers are the paper's (TMC13 CPU 1687 mW, CWIPC CPU
 *   3622 mW, ours CPU 1310 mW + GPU 1065 mW).
 * - Fig. 8c: compressed size and PSNR (geometry PSNR >70 dB
 *   everywhere in the paper).
 * - Fig. 9: energy of the inter-frame attribute stages on Loot's
 *   first P frame (frame 1) with V1.
 * - Decode latency on Redandblack (Sec. IV-B3 / VI-C).
 * - Power modes (Sec. VI-C): the Loot runs re-priced on 10 W.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace edgepcc;

namespace {

using bench::printRule;
using bench::VideoRunResult;

/** [video][design], ordered as paperCatalogue() x allPaperConfigs(). */
using Grid = std::vector<std::vector<VideoRunResult>>;
constexpr std::size_t kRedandblack = 0;
constexpr std::size_t kLoot = 2;
enum Design : std::size_t { kTmc13, kCwipc, kIntraOnly, kV1, kV2 };

/** One headline line: a design against a baseline design. */
struct Versus {
    const char *label;
    Design baseline;
    Design design;
    const char *paper;
};

void
printFig2(const VideoRunResult &run, std::size_t points,
          double scale, const EdgeDeviceModel &model)
{
    const PipelineTiming timing = model.evaluate(run.enc_profiles[0]);

    (void)std::printf("Fig. 2: latency breakdown of the prior PCC "
                "pipeline (TMC13-like)\n");
    (void)std::printf("video=%s  points=%zu  scale=%.2f  device=%s\n\n",
                run.video.c_str(), points, scale,
                model.spec().name.c_str());
    printRule(74);
    (void)std::printf("%-28s %14s %14s\n", "Stage", "model [ms]",
                "host [ms]");
    printRule(74);
    for (const StageTiming &stage : timing.stages) {
        (void)std::printf("%-28s %14.1f %14.1f\n", stage.name.c_str(),
                    stage.model_seconds * 1e3,
                    stage.host_seconds * 1e3);
    }
    printRule(74);
    (void)std::printf("%-28s %14.1f %14.1f\n", "total",
                timing.modelSeconds() * 1e3,
                timing.hostSeconds() * 1e3);
    const double geom_s = timing.modelSecondsWithPrefix("geom.");
    (void)std::printf("%-28s %14.1f\n", "geometry subtotal",
                geom_s * 1e3);
    (void)std::printf("%-28s %14.1f\n", "attribute subtotal",
                (timing.modelSeconds() - geom_s) * 1e3);
    (void)std::printf("\nPaper anchors at full scale: octree build ~1000 "
                "ms, serialization ~500 ms,\nRAHT+quant+entropy "
                "~2600 ms, total ~4100 ms. Model values scale "
                "~linearly with\npoint count (current scale %.2f "
                "of the paper's frame size).\n",
                scale);
}

void
printFig8a(const Grid &grid, double scale, int frames,
           const EdgeDeviceModel &model)
{
    (void)std::printf("\nFig. 8a: encode latency per frame "
                "(scale=%.2f, frames=%d, device=%s)\n\n",
                scale, frames, model.spec().name.c_str());
    (void)std::printf("%-13s %-15s %11s %11s %11s %12s\n", "Video",
                "Design", "geom [ms]", "attr [ms]", "total [ms]",
                "host [ms]");
    printRule(80);
    std::vector<double> total(grid.front().size(), 0.0);
    for (const auto &row : grid) {
        for (std::size_t d = 0; d < row.size(); ++d) {
            const VideoRunResult &r = row[d];
            (void)std::printf("%-13s %-15s %11.1f %11.1f %11.1f %12.1f\n",
                        r.video.c_str(), r.config.c_str(),
                        r.modelled.enc_geom_s * 1e3,
                        r.modelled.enc_attr_s * 1e3,
                        r.modelled.enc_s * 1e3, r.enc_host_s * 1e3);
            total[d] += r.modelled.enc_s;
        }
        printRule(80);
    }
    (void)std::printf("\nGeomean-free summary (mean over %zu "
                "videos):\n",
                grid.size());
    for (const Versus &v :
         {Versus{"Intra-Only speedup vs TMC13", kTmc13, kIntraOnly,
                 "43.7x"},
          Versus{"V1 speedup vs CWIPC", kCwipc, kV1, "~34x"},
          Versus{"V2 speedup vs CWIPC", kCwipc, kV2, "~35x"}}) {
        (void)std::printf("  %-27s : %6.1fx (paper: %s)\n", v.label,
                    total[v.baseline] / total[v.design], v.paper);
    }
}

void
printFig8b(const Grid &grid, double scale, int frames,
           const EdgeDeviceModel &model)
{
    (void)std::printf("\nFig. 8b: energy per frame (scale=%.2f, "
                "frames=%d, device=%s)\n\n",
                scale, frames, model.spec().name.c_str());
    (void)std::printf("%-13s %-15s %13s %14s\n", "Video", "Design",
                "energy [J]", "avg power [W]");
    printRule(60);
    std::vector<double> joules(grid.front().size(), 0.0);
    for (const auto &row : grid) {
        for (std::size_t d = 0; d < row.size(); ++d) {
            const VideoRunResult &r = row[d];
            (void)std::printf("%-13s %-15s %13.3f %14.2f\n",
                        r.video.c_str(), r.config.c_str(),
                        r.modelled.enc_j, r.modelled.encWatts());
            joules[d] += r.modelled.enc_j;
        }
        printRule(60);
    }
    (void)std::printf("\nEnergy savings (mean over %zu videos):\n",
                grid.size());
    for (const Versus &v :
         {Versus{"Intra-Only vs TMC13", kTmc13, kIntraOnly, "96.6%"},
          Versus{"V1 vs CWIPC", kCwipc, kV1, "~97%"},
          Versus{"V2 vs CWIPC", kCwipc, kV2, "~97%"}}) {
        (void)std::printf("  %-19s : %5.1f%%  (paper: %s)\n", v.label,
                    100.0 * (1.0 - joules[v.design] /
                                       joules[v.baseline]),
                    v.paper);
    }
}

void
printFig8c(const Grid &grid, double scale, int frames)
{
    (void)std::printf("\nFig. 8c: compression efficiency "
                "(scale=%.2f, frames=%d)\n\n",
                scale, frames);
    (void)std::printf("%-13s %-15s %10s %9s %9s %10s %10s %10s\n",
                "Video", "Design", "size [MB]", "of raw",
                "geom%", "attr%", "aPSNR dB", "gPSNR dB");
    printRule(94);
    for (const auto &row : grid) {
        for (const VideoRunResult &r : row) {
            const double of_raw =
                r.raw_mb > 0.0 ? r.compressed_mb / r.raw_mb : 0.0;
            const double payload = r.geometry_mb + r.attr_mb;
            (void)std::printf(
                "%-13s %-15s %10.3f %8.1f%% %8.1f%% %9.1f%% "
                "%10.1f %10.1f\n",
                r.video.c_str(), r.config.c_str(),
                r.compressed_mb, of_raw * 100.0,
                payload > 0.0 ? 100.0 * r.geometry_mb / payload
                              : 0.0,
                payload > 0.0 ? 100.0 * r.attr_mb / payload : 0.0,
                r.attr_psnr_db, r.geom_psnr_db);
        }
        printRule(94);
    }
    (void)std::printf("\nPaper anchors: TMC13 ~8%% of raw @55 dB | "
                "CWIPC ~14%% @47.8 dB | Intra-Only ~17%%\n@48.5 dB "
                "(19%%/81%% geom/attr split) | V1 ~12%% @42.4 dB | "
                "V2 ~10%% @39.5 dB.\nCompression ratio: intra 5.95 "
                "-> inter 10.43 (Sec. I).\n");
}

void
printFig9(const VideoRunResult &run, double scale,
          const EdgeDeviceModel &model)
{
    (void)std::printf("\nFig. 9: energy breakdown of inter-frame "
                "attribute compression\n");
    if (run.enc_profiles.size() < 2) {
        (void)std::printf("needs a P frame: run with EDGEPCC_FRAMES >= 2\n");
        return;
    }

    // Aggregate kernel energies of the inter-frame attribute
    // stages (everything that is not geometry).
    const PipelineTiming timing = model.evaluate(run.enc_profiles[1]);
    std::map<std::string, double> kernel_energy;
    double total = 0.0;
    for (const StageTiming &stage : timing.stages) {
        if (stage.name.rfind("geom.", 0) == 0)
            continue;
        for (const KernelTiming &kernel : stage.kernels) {
            kernel_energy[kernel.name] += kernel.joules;
            total += kernel.joules;
        }
    }

    // Map kernels onto the paper's Fig. 9 categories.
    const auto category = [](const std::string &name) {
        if (name == "bm.diff_squared")
            return "Diff_Squared (2-norm)";
        if (name == "bm.squared_sum")
            return "Squared_Sum (2-norm)";
        if (name == "bm.address_gen" ||
            name == "attr.seg_addressgen")
            return "Address generation";
        return "Others (sort/segment/pack/reuse)";
    };
    std::map<std::string, double> buckets;
    for (const auto &[name, joules] : kernel_energy)
        buckets[category(name)] += joules;

    (void)std::printf("video=%s (P frame), scale=%.2f, total=%.3f J\n\n",
                run.video.c_str(), scale, total);
    (void)std::printf("%-36s %10s %8s %16s\n", "Category", "energy [J]",
                "share", "paper share");
    printRule(76);
    const std::map<std::string, const char *> paper = {
        {"Diff_Squared (2-norm)", "35%"},
        {"Squared_Sum (2-norm)", "16%"},
        {"Address generation", "32%"},
        {"Others (sort/segment/pack/reuse)", "17%"},
    };
    for (const auto &[name, joules] : buckets) {
        (void)std::printf("%-36s %10.4f %7.1f%% %16s\n", name.c_str(),
                    joules, 100.0 * joules / total, paper.at(name));
    }
    printRule(76);
    (void)std::printf("\nPer-kernel detail:\n");
    for (const auto &[name, joules] : kernel_energy) {
        (void)std::printf("  %-28s %10.4f J (%5.1f%%)\n", name.c_str(),
                    joules, 100.0 * joules / total);
    }
}

void
printDecodeLatency(const std::vector<VideoRunResult> &row,
                   double scale)
{
    (void)std::printf("\nDecode latency per frame "
                "(video=%s, scale=%.2f)\n\n",
                row.front().video.c_str(), scale);
    (void)std::printf("%-15s %14s %14s %16s\n", "Design",
                "decode [ms]", "host [ms]", "encode [ms]");
    printRule(64);
    for (const VideoRunResult &r : row) {
        (void)std::printf("%-15s %14.1f %14.1f %16.1f\n",
                    r.config.c_str(), r.modelled.dec_s * 1e3,
                    r.dec_host_s * 1e3, r.modelled.enc_s * 1e3);
    }
    printRule(64);
    (void)std::printf("\nPaper anchor: ~70 ms/frame decode for the "
                "proposed stream at full scale\n(Redandblack), "
                "i.e. decode is faster than encode and supports "
                "~10 FPS\nend-to-end.\n");
}

/** `row` was priced on the 15 W mode as it ran. */
void
printPowerModes(const std::vector<VideoRunResult> &row, double scale)
{
    const EdgeDeviceModel mode10(DeviceSpec::jetsonXavier10W());

    (void)std::printf("\nPower-mode study (video=%s, scale=%.2f)\n\n",
                row.front().video.c_str(), scale);
    (void)std::printf("%-15s %12s %12s %8s %12s %12s\n", "Design",
                "15W [ms]", "10W [ms]", "ratio", "15W [W]",
                "10W [W]");
    printRule(78);
    for (const VideoRunResult &r : row) {
        const bench::ModelledCost &fast = r.modelled;
        const bench::ModelledCost slow = bench::priceRun(r, mode10);
        (void)std::printf(
            "%-15s %12.1f %12.1f %8.2f %12.2f %12.2f\n",
            r.config.c_str(), fast.enc_s * 1e3, slow.enc_s * 1e3,
            fast.enc_s > 0.0 ? slow.enc_s / fast.enc_s : 0.0,
            fast.encWatts(), slow.encWatts());
    }
    printRule(78);
    (void)std::printf("\nPaper anchor: 10 W mode latency = 1.29x the "
                "15 W latency; the proposal's ~4 W\naverage draw "
                "fits a smartphone's 10 W peak discharge power.\n");
}

}  // namespace

int
main()
{
    const double scale = bench::defaultScale();
    const int frames = bench::defaultFrames();
    const EdgeDeviceModel model(DeviceSpec::jetsonXavier15W());
    const std::vector<VideoSpec> specs = paperVideoSpecs(scale);

    Grid grid;
    for (const VideoSpec &spec : specs) {
        std::vector<VideoRunResult> &row = grid.emplace_back();
        for (const CodecConfig &config : allPaperConfigs()) {
            auto run = bench::runVideo(spec, config, frames, model);
            if (!run)
                return bench::fail(run.status());
            row.push_back(run.takeValue());
        }
    }

    printFig2(grid[kRedandblack][kTmc13],
              bench::framesFor(specs[kRedandblack], frames)[0].size(),
              scale, model);
    printFig8a(grid, scale, frames, model);
    printFig8b(grid, scale, frames, model);
    printFig8c(grid, scale, frames);
    printFig9(grid[kLoot][kV1], scale, model);
    printDecodeLatency(grid[kRedandblack], scale);
    printPowerModes(grid[kLoot], scale);
    return 0;
}
