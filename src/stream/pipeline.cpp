#include "edgepcc/stream/pipeline.h"

#include "edgepcc/common/trace.h"

namespace edgepcc {

PipelineConfig::PipelineConfig() = default;

double
PipelineReport::meanTotalSeconds() const
{
    if (frames.empty())
        return 0.0;
    double sum = 0.0;
    for (const FrameLatency &frame : frames)
        sum += frame.total();
    return sum / static_cast<double>(frames.size());
}

double
PipelineReport::pipelinedFps() const
{
    if (frames.empty())
        return 0.0;
    double worst = 0.0;
    for (const FrameLatency &frame : frames)
        worst = std::max(worst, frame.bottleneckSeconds());
    return worst > 0.0 ? 1.0 / worst : 0.0;
}

double
PipelineReport::meanBitsPerFrame() const
{
    if (frames.empty())
        return 0.0;
    double sum = 0.0;
    for (const FrameLatency &frame : frames)
        sum += static_cast<double>(frame.bytes) * 8.0;
    return sum / static_cast<double>(frames.size());
}

double
PipelineReport::meanRecoverySeconds() const
{
    if (frames.empty())
        return 0.0;
    double sum = 0.0;
    for (const FrameLatency &frame : frames)
        sum += frame.recovery_s;
    return sum / static_cast<double>(frames.size());
}

namespace {

/**
 * Transport-mode evaluation: run the full resilient session
 * (slicing + FEC + NACK over a fault-injection channel derived
 * from the network spec) and price each frame's latency from the
 * session's actual accounting. Serialization uses the frame's real
 * wire bytes — parity and resends included — so loss is never
 * double-counted; recovery adds the modelled backoff plus one RTT
 * per NACK round-trip.
 */
Expected<PipelineReport>
evaluateTransport(const std::vector<VoxelCloud> &frames,
                  const CodecConfig &codec,
                  const PipelineConfig &config)
{
    const EdgeDeviceModel device_model(DeviceSpec::jetsonXavier15W());

    SessionConfig session = config.session;
    if (!config.use_session_channel)
        session.channel = ChannelSpec::fromNetwork(
            config.network, config.transport_seed);
    StreamSession stream(codec, session);
    auto run = stream.run(frames);
    if (!run)
        return run.status();

    PipelineReport report;
    report.transport = true;
    report.session = run->stats;
    report.wire = run->wire;
    report.fec = run->fec;
    report.overload = run->overload;
    report.frames.reserve(run->frames.size());

    const double rtt_s = config.network.rtt_ms / 1e3;
    for (const SessionFrame &frame : run->frames) {
        FrameLatency latency;
        latency.type = frame.type;
        latency.outcome = frame.outcome;
        latency.retransmits = frame.retransmits;
        latency.capture_s = kCaptureSeconds;
        latency.encode_s =
            device_model.evaluate(frame.encode_profile)
                .modelSeconds();
        // Under the overload ladder the effective encode latency
        // (LoadSpec-scaled) is the honest number.
        if (run->overload.enabled &&
            frame.frame_id < run->overload.ladder.size())
            latency.encode_s =
                run->overload.ladder[frame.frame_id].encode_s;
        latency.bytes = frame.payload_bytes;
        latency.wire_bytes = frame.wire_bytes;
        latency.transmit_s =
            config.network.latencySeconds() +
            config.network.serializationSeconds(
                frame.wire_bytes);
        latency.recovery_s =
            frame.backoff_s +
            static_cast<double>(frame.nack_rounds) * rtt_s;
        latency.decode_s =
            device_model.evaluate(frame.decode_profile)
                .modelSeconds();
        latency.render_s = kRenderSeconds;
        report.frames.push_back(latency);
    }
    return report;
}

}  // namespace

Expected<PipelineReport>
evaluatePipeline(const std::vector<VoxelCloud> &frames,
                 const CodecConfig &codec,
                 const PipelineConfig &config)
{
    if (frames.empty())
        return invalidArgument("evaluatePipeline: no frames");

    if (config.transport) {
        ScopedTrace trace("pipeline.evaluate_transport");
        return evaluateTransport(frames, codec, config);
    }

    const EdgeDeviceModel device_model(DeviceSpec::jetsonXavier15W());
    VideoEncoder encoder(codec);
    VideoDecoder decoder;

    PipelineReport report;
    report.frames.reserve(frames.size());

    ScopedTrace run_trace("pipeline.evaluate");
    for (const VoxelCloud &frame : frames) {
        ScopedTrace frame_trace("pipeline.frame");
        auto encoded = encoder.encode(frame);
        if (!encoded)
            return encoded.status();
        auto decoded = decoder.decode(encoded->bitstream);
        if (!decoded)
            return decoded.status();

        FrameLatency latency;
        latency.type = encoded->stats.type;
        latency.capture_s = kCaptureSeconds;
        latency.encode_s =
            device_model.evaluate(encoded->profile)
                .modelSeconds();
        latency.bytes = encoded->bitstream.size();
        latency.wire_bytes = latency.bytes;
        latency.transmit_s =
            config.network.transferSeconds(latency.bytes);
        latency.decode_s =
            device_model.evaluate(decoded->profile)
                .modelSeconds();
        latency.render_s = kRenderSeconds;
        report.frames.push_back(latency);
    }
    return report;
}

}  // namespace edgepcc
