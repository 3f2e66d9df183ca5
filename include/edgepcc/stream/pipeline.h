/**
 * @file
 * End-to-end PC video pipeline evaluation (paper Fig. 1).
 *
 * Combines capture, encode (edge device model), transmission
 * (network model), decode (viewer device model) and render into
 * per-frame latency and pipelined throughput. The paper's claim:
 * with the proposed codec the full pipeline reaches near real time
 * (~10 FPS, decode ~70 ms), where the baselines sit at seconds per
 * frame.
 */

#ifndef EDGEPCC_STREAM_PIPELINE_H
#define EDGEPCC_STREAM_PIPELINE_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/network_model.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {

/** 3D content generation (LiDAR scan / photogrammetry) seconds;
 *  the paper cites "10s of milliseconds". */
inline constexpr double kCaptureSeconds = 0.030;
/** Render & display seconds on the viewer. */
inline constexpr double kRenderSeconds = 0.012;

/**
 * Pipeline configuration. Encoder and viewer are both modelled as
 * DeviceSpec::jetsonXavier15W(), the device the overload ladder
 * also judges encode latency on.
 */
struct PipelineConfig {
    // Out-of-line so the string-bearing member constructors are not
    // inlined into every caller (GCC 12 flags the inlined cleanup
    // paths with a spurious -Wmaybe-uninitialized under -O2).
    PipelineConfig();

    NetworkSpec network = NetworkSpec::wifi();

    /**
     * When true, the transfer stage runs the real chunked
     * transport: frames are sliced, FEC-protected and shipped
     * through a fault-injection channel derived from `network`
     * (ChannelSpec::fromNetwork), and the reported latency uses
     * the session's actual wire bytes (parity + retransmissions
     * included) plus modelled NACK round-trips — no 1/(1 - loss)
     * inflation, the loss is simulated instead. When false the
     * analytic loss-free model is used (legacy behaviour).
     */
    bool transport = false;
    /** Transport knobs (MTU slicing, FEC, NACK retries). The
     *  channel spec inside is overwritten from `network` unless
     *  `use_session_channel` is set. */
    SessionConfig session{};
    /** Keep `session.channel` as configured instead of deriving it
     *  from `network` — lets callers inject bursty or otherwise
     *  shaped channels the analytic network spec cannot express.
     *  Latency pricing still uses `network`. */
    bool use_session_channel = false;
    /** Fault-injection seed for the transport channel. */
    std::uint64_t transport_seed = 1;
};

/** Per-frame end-to-end latency split. */
struct FrameLatency {
    Frame::Type type = Frame::Type::kIntra;
    double capture_s = 0.0;
    double encode_s = 0.0;
    double transmit_s = 0.0;
    /** Loss-recovery time: retransmission backoff plus one RTT per
     *  NACK round. Zero in the analytic (non-transport) model. */
    double recovery_s = 0.0;
    double decode_s = 0.0;
    double render_s = 0.0;
    /** Encoded frame payload size. */
    std::uint64_t bytes = 0;
    /** Actual wire bytes (headers, slices, parity, resends);
     *  equals `bytes` in the analytic model (no framing). */
    std::uint64_t wire_bytes = 0;
    /** Degradation-ladder outcome (kOk in the analytic model). */
    FrameOutcome outcome = FrameOutcome::kOk;
    int retransmits = 0;

    double
    total() const
    {
        return capture_s + encode_s + transmit_s + recovery_s +
               decode_s + render_s;
    }

    /** Slowest stage bounds the pipelined frame rate. Recovery
     *  overlaps transmission, so they count as one stage. */
    double
    bottleneckSeconds() const
    {
        double worst = capture_s;
        for (const double stage :
             {encode_s, transmit_s + recovery_s, decode_s,
              render_s}) {
            if (stage > worst)
                worst = stage;
        }
        return worst;
    }
};

/** Aggregate over a run. */
struct PipelineReport {
    std::vector<FrameLatency> frames;

    /** Transport-mode accounting; all zero when the analytic
     *  model was used (PipelineConfig::transport == false). */
    bool transport = false;
    SessionStats session;
    WireScanStats wire;
    FecStats fec;
    /** Deadline-ladder accounting (transport mode with
     *  session.overload.enabled only). */
    OverloadStats overload;

    double meanTotalSeconds() const;
    /** Sustainable FPS with stage-level pipelining. */
    double pipelinedFps() const;
    double meanBitsPerFrame() const;
    /** Mean per-frame loss-recovery seconds. */
    double meanRecoverySeconds() const;
};

/**
 * Runs `frames` through encode -> transmit -> decode and reports
 * the modelled end-to-end behaviour. The transmit stage is either
 * the analytic loss-free network model or, with
 * PipelineConfig::transport, the real chunked transport over a
 * fault-injection channel (slicing + FEC + NACK accounting).
 */
Expected<PipelineReport> evaluatePipeline(
    const std::vector<VoxelCloud> &frames,
    const CodecConfig &codec, const PipelineConfig &config);

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_PIPELINE_H
