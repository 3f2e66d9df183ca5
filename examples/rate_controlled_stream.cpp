/**
 * @file
 * Bandwidth-budgeted streaming: a StreamSession whose redundancy
 * controller moves the paper's direct-reuse threshold knob
 * (Sec. VI-E) so that P frames fit a per-frame wire budget, with the
 * Reed-Solomon parity it spends counted against that budget.
 *
 * The session keeps the paper's IPP pattern (max_gop_size =
 * codec.gop_size) on a clean channel with 1200-byte slices. After
 * every P frame the controller scales the threshold by
 * (payload / budget) ^ kRateGain, where the payload budget is the
 * wire budget times the data share k / (k + m) of its RS groups.
 *
 * Usage: rate_controlled_stream [target_kbit_per_frame] [frames]
 */

#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/stream/stream_session.h"

int
main(int argc, char **argv)
{
    using namespace edgepcc;
    const std::optional<double> kbit_arg =
        argc > 1 ? finiteNumber(argv[1]) : 300.0;
    const std::optional<int> frame_arg =
        argc > 2 ? wholeNumber<int>(argv[2]) : 12;
    if (!kbit_arg || !(*kbit_arg > 0.0) || !frame_arg ||
        *frame_arg < 1) {
        (void)std::fprintf(stderr,
                           "usage: rate_controlled_stream "
                           "[target_kbit_per_frame > 0] "
                           "[frames >= 1]\n");
        return 2;
    }
    const double target_kbit = *kbit_arg;
    const int frames = *frame_arg;

    VideoSpec spec;
    spec.name = "rate-controlled";
    spec.target_points = 70000;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> clouds;
    clouds.reserve(static_cast<std::size_t>(frames));
    for (int f = 0; f < frames; ++f)
        clouds.push_back(video.frame(f));

    const CodecConfig codec = makeIntraInterV1Config();
    SessionConfig session;
    session.channel = ChannelSpec::clean();
    session.mtu_payload = 1200;
    session.fec.enabled = true;
    session.fec.scheme = FecScheme::kReedSolomon;
    session.redundancy.enabled = true;
    session.redundancy.wire_budget_bytes =
        static_cast<std::uint64_t>(target_kbit * 1000.0 / 8.0);
    session.redundancy.max_gop_size = codec.gop_size;  // IPP

    auto report = StreamSession(codec, session).run(clouds);
    if (!report) {
        (void)std::fprintf(stderr, "session failed: %s\n",
                           report.status().toString().c_str());
        return 1;
    }

    (void)std::printf("Target: %.0f kbit/frame on the wire (%.2f "
                      "Mbit/s at 30 fps), %d frames of ~%zu "
                      "points\n\n",
                      target_kbit, target_kbit * 30.0 / 1e3, frames,
                      spec.target_points);
    (void)std::printf("%5s %5s %13s %10s %10s\n", "frame", "type",
                      "payload kbit", "wire kbit", "PSNR [dB]");
    for (const SessionFrame &frame : report->frames) {
        (void)std::printf(
            "%5u %5s %13.0f %10.0f %10.1f\n",
            static_cast<unsigned>(frame.frame_id),
            frame.type == Frame::Type::kPredicted ? "P" : "I",
            static_cast<double>(frame.payload_bytes) * 8.0 / 1e3,
            static_cast<double>(frame.wire_bytes) * 8.0 / 1e3,
            attributePsnr(clouds[frame.frame_id], frame.cloud).psnr);
    }
    (void)std::printf("\nThe controller trades PSNR for bitrate by "
                      "raising the reuse threshold until\nP frames "
                      "fit the budget left after parity (I frames "
                      "are bounded by the intra\ncodec).\n");
    return 0;
}
