/**
 * @file
 * Ablation of the segment-count design point (paper Sec. VI-B,
 * footnote 7: 30000 intra blocks / 50000 inter blocks were chosen
 * by profiling for a balanced size/quality point).
 *
 * Sweeps the intra segment count: fewer segments -> larger
 * per-block attribute ranges (more residual bits, worse size);
 * more segments -> more per-block headers. A sweet spot appears
 * around one block per ~20-30 points, matching the paper's choice.
 */

#include <cstdio>

#include "bench_common.h"

int
main()
{
    using namespace edgepcc;
    const double scale = bench::defaultScale();
    const EdgeDeviceModel model;
    const VideoSpec spec =
        makeVideoSpec(paperCatalogue()[0], scale);  // Redandblack
    const std::size_t points =
        bench::framesFor(spec, 1)[0].size();

    (void)std::printf("Ablation: intra segment count "
                "(video=%s, points=%zu)\n\n",
                spec.name.c_str(), points);
    (void)std::printf("%12s %12s %12s %14s %12s\n", "segments",
                "pts/block", "attr [MB]", "attr [ms]",
                "aPSNR [dB]");
    bench::printRule(68);

    for (const double per_block : {6.0, 12.0, 24.0, 48.0, 96.0,
                                   192.0}) {
        CodecConfig config = makeIntraOnlyConfig();
        config.name = "sweep";
        config.segment.num_segments = static_cast<std::uint32_t>(
            static_cast<double>(points) / per_block);
        const auto r = bench::runVideo(spec, config, 1, model);
        if (!r)
            return bench::fail(r.status());
        (void)std::printf("%12u %12.0f %12.4f %14.1f %12.1f\n",
                    config.segment.num_segments, per_block,
                    r->attr_mb, r->modelled.enc_attr_s * 1e3,
                    r->attr_psnr_db);
    }
    bench::printRule(68);
    (void)std::printf("\nPaper design point: 30000 blocks per ~727k-pt "
                "frame (~24 pts/block) balances\ncompressed size "
                "against quality (Sec. VI-B fn. 7).\n");
    return 0;
}
