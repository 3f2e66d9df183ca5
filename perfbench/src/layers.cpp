/**
 * Per-layer replays of the traced mode. Each replay calls one
 * module's public functions with the driver's own WorkRecorder, so
 * the device model prices the layer, and times the call from the
 * outside with a span keyed by frame id.
 */

#include <algorithm>

#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/morton/morton_order.h"
#include "edgepcc/octree/geometry_codec.h"
#include "edgepcc/platform/arena.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/lossy_channel.h"
#include "edgepcc/stream/redundancy_controller.h"
#include "edgepcc/stream/rs_fec.h"
#include "workload.h"

namespace perfbench {

using namespace edgepcc;

namespace {

AttrChannels
toChannels(const VoxelCloud &cloud)
{
    AttrChannels channels;
    channels[0].assign(cloud.r().begin(), cloud.r().end());
    channels[1].assign(cloud.g().begin(), cloud.g().end());
    channels[2].assign(cloud.b().begin(), cloud.b().end());
    return channels;
}

/** Paints decoded channels onto `cloud`, clamped to 8 bits. */
void
paint(const AttrChannels &channels, VoxelCloud &cloud)
{
    const auto to8 = [](std::int32_t v) {
        return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
    };
    const std::size_t n = std::min(cloud.size(), channels[0].size());
    for (std::size_t i = 0; i < n; ++i) {
        cloud.mutableR()[i] = to8(channels[0][i]);
        cloud.mutableG()[i] = to8(channels[1][i]);
        cloud.mutableB()[i] = to8(channels[2][i]);
    }
}

double
modelMs(const WorkRecorder &recorder, const char *exclude_prefix = "")
{
    static const EdgeDeviceModel model;
    const PipelineTiming timing = model.evaluate(recorder.profile());
    const double excluded =
        *exclude_prefix != '\0'
            ? timing.modelSecondsWithPrefix(exclude_prefix)
            : 0.0;
    return (timing.modelSeconds() - excluded) * 1e3;
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/**
 * Times one replayed layer call with a span, with per-call scratch
 * bound the way VideoEncoder and VideoDecoder bind theirs, so the
 * layer's kernels allocate as they do inside the program.
 */
class TimedCall
{
  public:
    TimedCall(FrameArena &arena, SpanLog *spans, const char *name,
              std::int64_t frame)
        : bind_((arena.reset(), &arena)), span_(spans, name, frame)
    {
    }
    double stop() { return span_.stop(); }

  private:
    ScopedFrameArena bind_;
    Span span_;
};

/** Sample lists and byte/point sums of one layer. */
struct LayerSamples {
    std::vector<double> encode_ms, decode_ms, model_ms;
    double bytes = 0.0;
    double points = 0.0;

    void
    report(Report &out, const std::string &layer) const
    {
        out.metric(layer + ".encode_ms_p50",
                   computePercentiles(encode_ms).p50, "ms");
        out.metric(layer + ".decode_ms_p50",
                   computePercentiles(decode_ms).p50, "ms");
        out.metric(layer + ".model_ms_p50",
                   computePercentiles(model_ms).p50, "ms");
        out.metric(layer + ".bytes_per_point", ratio(bytes, points),
                   "B/pt");
    }
};

}  // namespace

void
replayCodecLayers(const std::vector<CodedFrame> &frames, SpanLog *spans,
                  Report &report)
{
    const CodecConfig v1 = makeIntraInterV1Config();
    std::vector<double> morton_ms, encode_residual_ms,
        decode_residual_ms;
    LayerSamples octree, attr, inter, entropy;
    double reused = 0.0, blocks = 0.0;
    double entropy_off_bytes = 0.0, entropy_on_bytes = 0.0;
    double residual_s = 0.0, calls_s = 0.0;
    VoxelCloud ref_encoder, ref_decoder;
    bool have_reference = false;
    FrameArena arena;

    for (std::size_t i = 0; i < frames.size(); ++i) {
        const CodedFrame &frame = frames[i];
        const VoxelCloud &input = *frame.input;
        const CodecConfig &codec = *frame.codec;
        const auto id = static_cast<std::int64_t>(i);
        const bool program_p =
            frame.stats.type == Frame::Type::kPredicted;
        // Codecs without inter coding are priced as IPP as well.
        const bool what_if = codec.inter_mode == InterMode::kNone;
        const bool as_p = what_if ? i % 3 != 0 : program_p;
        const bool same_path = as_p == program_p;

        {
            WorkRecorder recorder;
            TimedCall call(arena, spans, "morton.order", id);
            const MortonOrder order = computeMortonOrder(input, &recorder);
            morton_ms.push_back(call.stop() * 1e3);
            report.check(order.codes.size() == input.size(),
                         "morton order covers every point");
        }

        // Geometry with entropy off (octree) and on (entropy); the
        // variant the codec uses must reproduce its payload size.
        const bool codec_entropy = codec.geometry.entropy_coding ||
                                   codec.geometry.contextual_entropy;
        GeometryConfig off = codec.geometry;
        off.entropy_coding = false;
        off.contextual_entropy = false;
        GeometryConfig on = codec.geometry;
        if (!codec_entropy) {
            on.entropy_coding = true;
            on.contextual_entropy = true;
        }
        WorkRecorder rec_off, rec_on, dec_off, dec_on;
        Expected<GeometryEncoded> geom_off = internalError("unset");
        Expected<GeometryEncoded> geom_on = internalError("unset");
        Expected<VoxelCloud> cloud_off = internalError("unset");
        Expected<VoxelCloud> cloud_on = internalError("unset");
        double t_off = 0.0, t_on = 0.0, td_off = 0.0, td_on = 0.0;
        {
            TimedCall call(arena, spans, "octree.encode", id);
            geom_off = encodeGeometry(input, off, &rec_off);
            t_off = call.stop();
        }
        {
            TimedCall call(arena, spans, "entropy.encode", id);
            geom_on = encodeGeometry(input, on, &rec_on);
            t_on = call.stop();
        }
        report.attempt(2);
        if (!report.expectValue(geom_off, "encodeGeometry") ||
            !report.expectValue(geom_on, "encodeGeometry (entropy)"))
            return;
        {
            TimedCall call(arena, spans, "octree.decode", id);
            cloud_off = decodeGeometry(geom_off->payload, &dec_off);
            td_off = call.stop();
        }
        {
            TimedCall call(arena, spans, "entropy.decode", id);
            cloud_on = decodeGeometry(geom_on->payload, &dec_on);
            td_on = call.stop();
        }
        report.attempt(2);
        if (!report.expectValue(cloud_off, "decodeGeometry") ||
            !report.expectValue(cloud_on, "decodeGeometry (entropy)"))
            return;

        const GeometryEncoded &geom = codec_entropy ? *geom_on : *geom_off;
        report.check(geom.payload.size() == frame.stats.geometry_bytes,
                     "replayed geometry payload of frame " +
                         std::to_string(i) + " differs in size");
        const double morton_in_geom_s =
            rec_off.profile().hostSecondsWithPrefix("geom.morton");
        octree.encode_ms.push_back((t_off - morton_in_geom_s) * 1e3);
        octree.decode_ms.push_back(td_off * 1e3);
        octree.model_ms.push_back(modelMs(rec_off, "geom.morton"));
        octree.bytes += static_cast<double>(geom_off->payload.size());
        octree.points += static_cast<double>(input.size());
        entropy.encode_ms.push_back((t_on - t_off) * 1e3);
        entropy.decode_ms.push_back((td_on - td_off) * 1e3);
        entropy.model_ms.push_back(modelMs(rec_on) - modelMs(rec_off));
        entropy_off_bytes += static_cast<double>(geom_off->payload.size());
        entropy_on_bytes += static_cast<double>(geom_on->payload.size());

        const VoxelCloud &decoded_geometry =
            codec_entropy ? *cloud_on : *cloud_off;
        double t_attr_enc = 0.0, t_attr_dec = 0.0, t_reference = 0.0;
        std::size_t attr_bytes = 0;
        if (!as_p) {
            WorkRecorder enc_rec, dec_rec;
            const AttrChannels channels = toChannels(geom.sorted_cloud);
            Expected<std::vector<std::uint8_t>> payload =
                internalError("unset");
            Expected<AttrChannels> decoded = internalError("unset");
            {
                TimedCall call(arena, spans, "attr.encode", id);
                payload =
                    encodeSegmentAttr(channels, codec.segment, &enc_rec);
                t_attr_enc = call.stop();
            }
            report.attempt();
            if (!report.expectValue(payload, "encodeSegmentAttr"))
                return;
            {
                TimedCall call(arena, spans, "attr.decode", id);
                decoded = decodeSegmentAttr(*payload, &dec_rec);
                t_attr_dec = call.stop();
            }
            report.attempt();
            if (!report.expectValue(decoded, "decodeSegmentAttr"))
                return;
            attr_bytes = payload->size();
            attr.encode_ms.push_back(t_attr_enc * 1e3);
            attr.decode_ms.push_back(t_attr_dec * 1e3);
            attr.model_ms.push_back(modelMs(enc_rec));
            attr.bytes += static_cast<double>(attr_bytes);
            attr.points += static_cast<double>(input.size());
            ref_encoder = geom.sorted_cloud;
            paint(*decoded, ref_encoder);
            ref_decoder = decoded_geometry;
            paint(*decoded, ref_decoder);
            have_reference = true;
            // VideoEncoder decodes its own I frame as the reference.
            if (codec.inter_mode != InterMode::kNone)
                t_reference = t_attr_dec;
        } else {
            if (!have_reference) {
                report.check(false, "P frame replayed before any I frame");
                continue;
            }
            const BlockMatchConfig &matcher =
                what_if ? v1.block_match : codec.block_match;
            WorkRecorder enc_rec, dec_rec;
            Expected<InterAttrEncoded> coded = internalError("unset");
            {
                TimedCall call(arena, spans, "interframe.encode", id);
                coded = encodeInterAttr(geom.sorted_cloud, ref_encoder,
                                        matcher, &enc_rec);
                t_attr_enc = call.stop();
            }
            report.attempt();
            if (!report.expectValue(coded, "encodeInterAttr"))
                return;
            VoxelCloud p_cloud = decoded_geometry;
            Status status;
            {
                TimedCall call(arena, spans, "interframe.decode", id);
                status = decodeInterAttrInto(coded->payload, ref_decoder,
                                             p_cloud, &dec_rec);
                t_attr_dec = call.stop();
            }
            report.attempt();
            if (!report.expectOk(status, "decodeInterAttrInto"))
                return;
            attr_bytes = coded->payload.size();
            inter.encode_ms.push_back(t_attr_enc * 1e3);
            inter.decode_ms.push_back(t_attr_dec * 1e3);
            inter.model_ms.push_back(modelMs(enc_rec));
            inter.bytes += static_cast<double>(attr_bytes);
            inter.points += static_cast<double>(input.size());
            reused += coded->stats.reused_blocks;
            blocks += coded->stats.num_blocks;
        }
        if (!same_path)
            continue;
        report.check(attr_bytes == frame.stats.attr_bytes,
                     "replayed attribute payload of frame " +
                         std::to_string(i) + " differs in size");

        // core: the program's calls minus the layer calls inside them.
        if (frame.encode_s >= 0.0 && frame.decode_s >= 0.0) {
            const double enc_res =
                frame.encode_s -
                ((codec_entropy ? t_on : t_off) + t_attr_enc + t_reference);
            const double dec_res =
                frame.decode_s -
                ((codec_entropy ? td_on : td_off) + t_attr_dec);
            encode_residual_ms.push_back(enc_res * 1e3);
            decode_residual_ms.push_back(dec_res * 1e3);
            residual_s += enc_res + dec_res;
            calls_s += frame.encode_s + frame.decode_s;
        }
    }

    report.metric("morton.order_ms_p50", computePercentiles(morton_ms).p50,
                  "ms");
    octree.report(report, "octree");
    attr.report(report, "attr");
    inter.report(report, "interframe");
    report.metric("interframe.reuse_frac", ratio(reused, blocks),
                  "fraction");
    report.metric("entropy.encode_ms_p50",
                  computePercentiles(entropy.encode_ms).p50, "ms");
    report.metric("entropy.decode_ms_p50",
                  computePercentiles(entropy.decode_ms).p50, "ms");
    report.metric("entropy.model_ms_p50",
                  computePercentiles(entropy.model_ms).p50, "ms");
    report.metric("entropy.saved_frac",
                  1.0 - ratio(entropy_on_bytes, entropy_off_bytes),
                  "fraction");
    report.metric("core.encode_residual_ms_p50",
                  computePercentiles(encode_residual_ms).p50, "ms");
    report.metric("core.decode_residual_ms_p50",
                  computePercentiles(decode_residual_ms).p50, "ms");
    report.metric("core.unattributed_frac", ratio(residual_s, calls_s),
                  "fraction");
}

namespace {

/**
 * Re-encodes `frames` with `codec`, following the frame types the
 * session chose, and decodes the result in order. Fails the run
 * unless every replayed container has the session's payload size.
 */
std::vector<CodedFrame>
replaySessionEncodes(const std::vector<VoxelCloud> &frames,
                     const CodecConfig &codec,
                     const SessionReport &session, SpanLog *spans,
                     Report &report,
                     std::vector<std::vector<std::uint8_t>> *bitstreams)
{
    std::vector<CodedFrame> coded;
    VideoEncoder encoder(codec);
    VideoDecoder decoder;
    // The session decides frame types; follow them exactly.
    encoder.setGopSize(1 << 30);
    for (std::size_t f = 0; f < frames.size(); ++f) {
        const SessionFrame &sent = session.frames[f];
        const auto id = static_cast<std::int64_t>(f);
        if (sent.type == Frame::Type::kIntra)
            encoder.forceKeyframe();
        Span enc_span(spans, "core.encode", id);
        auto encoded = encoder.encode(frames[f]);
        const double enc_s = enc_span.stop();
        report.attempt();
        if (!report.expectValue(encoded, "replayed encode"))
            return {};
        Span dec_span(spans, "core.decode", id);
        auto decoded = decoder.decode(encoded->bitstream);
        const double dec_s = dec_span.stop();
        report.attempt();
        if (!report.expectValue(decoded, "replayed decode"))
            return {};
        report.check(encoded->stats.type == sent.type &&
                         encoded->stats.total_bytes == sent.payload_bytes,
                     "replayed encode of session frame " +
                         std::to_string(f) + " differs from the session");
        coded.push_back(
            CodedFrame{&frames[f], &codec, encoded->stats, enc_s, dec_s});
        if (bitstreams != nullptr)
            bitstreams->push_back(std::move(encoded->bitstream));
    }
    return coded;
}

}  // namespace

void
replayStreamLayer(const std::vector<VoxelCloud> &frames,
                  const CodecConfig &codec, const PipelineConfig &pipeline,
                  SpanLog *spans, Report &report,
                  std::vector<CodedFrame> *coded_out)
{
    const SessionConfig &session = pipeline.session;
    StreamSession stream(codec, session);
    report.attempt();
    Span run_span(spans, "stream.session", -1);
    auto run = stream.run(frames);
    const double session_s = run_span.stop();
    if (!report.expectValue(run, "StreamSession::run"))
        return;
    report.check(run->frames.size() == frames.size(),
                 "one SessionFrame per input frame");
    if (run->frames.size() != frames.size())
        return;
    std::vector<std::vector<std::uint8_t>> bits;
    std::vector<CodedFrame> coded =
        replaySessionEncodes(frames, codec, *run, spans, report, &bits);
    if (coded.size() != frames.size())
        return;

    // The RS geometry the session starts with.
    int k = session.fec.group_size;
    int m = session.fec.parity_chunks;
    if (session.redundancy.enabled) {
        const RedundancyDecision first =
            RedundancyController(session.redundancy, codec.gop_size,
                                 codec.block_match.reuse_threshold)
                .decide();
        k = first.group_size;
        m = first.parity_chunks;
    }
    const auto fec_flags =
        static_cast<std::uint8_t>(kChunkFlagFec | kChunkFlagRsFec);

    // Transport replay, one receiver and channel per GOP.
    std::vector<double> frame_us, fec_us, channel_us, ingest_us,
        decode_ms;
    double replay_s = 0.0;
    std::size_t f = 0;
    for (std::uint64_t gop = 0; f < frames.size(); ++gop) {
        std::size_t end = f + 1;
        while (end < frames.size() &&
               coded[end].stats.type == Frame::Type::kPredicted)
            ++end;
        StreamReceiver receiver;
        ChannelSpec spec = session.channel;
        spec.seed = mixSeed(spec.seed, gop);
        LossyChannel channel(spec);
        std::uint32_t sequence = 0;
        std::uint16_t next_group = 0;
        for (std::size_t g = f; g < end; ++g) {
            const auto id = static_cast<std::int64_t>(g);
            ChunkHeader base;
            base.frame_id = static_cast<std::uint32_t>(g - f);
            base.frame_type = coded[g].stats.type;
            std::vector<std::vector<std::uint8_t>> wire;

            Span frame_span(spans, "stream.frame", id);
            std::vector<ChunkView> slices = sliceFramePayloadViews(
                base, ByteSpan(bits[g]), session.mtu_payload);
            const auto group_k = static_cast<std::size_t>(k);
            for (std::size_t b = 0; b < slices.size(); b += group_k) {
                const std::size_t e = std::min(b + group_k, slices.size());
                const std::uint16_t group = next_group++;
                for (std::size_t i = b; i < e; ++i) {
                    ChunkHeader &h = slices[i].header;
                    h.flags |= fec_flags;
                    h.fec_group = group;
                    h.fec_seq = static_cast<std::uint8_t>(i - b);
                    h.fec_group_size = static_cast<std::uint8_t>(e - b);
                }
            }
            for (ChunkView &slice : slices) {
                slice.header.sequence = sequence++;
                wire.emplace_back();
                serializeChunkInto(slice.header, slice.payload,
                                   wire.back());
            }
            frame_us.push_back(frame_span.stop() * 1e6);

            Span fec_span(spans, "stream.fec_build", id);
            std::vector<std::uint8_t> parity_buf;
            for (std::size_t b = 0; b < slices.size(); b += group_k) {
                const std::size_t e = std::min(b + group_k, slices.size());
                const std::vector<ChunkView> group(
                    slices.begin() + static_cast<std::ptrdiff_t>(b),
                    slices.begin() + static_cast<std::ptrdiff_t>(e));
                ChunkHeader parity = base;
                parity.flags =
                    static_cast<std::uint8_t>(kChunkFlagParity | fec_flags);
                parity.fec_group = slices[b].header.fec_group;
                parity.fec_group_size = slices[b].header.fec_group_size;
                for (int row = 0; row < m; ++row) {
                    parity.fec_seq = rsParitySeq(row);
                    parity.sequence = sequence++;
                    buildRsParityInto(group, row, parity_buf);
                    wire.emplace_back();
                    serializeChunkInto(parity, ByteSpan(parity_buf),
                                       wire.back());
                }
            }
            fec_us.push_back(fec_span.stop() * 1e6);

            Span channel_span(spans, "stream.channel", id);
            std::vector<std::vector<std::uint8_t>> arrivals;
            for (const auto &chunk : wire) {
                for (auto &arrival : channel.transmit(chunk))
                    arrivals.push_back(std::move(arrival));
            }
            channel_us.push_back(channel_span.stop() * 1e6);

            // Ingest what arrived, then the lost slices again as a
            // NACK round would, so every frame reaches decodeAll.
            Span ingest_span(spans, "stream.ingest", id);
            for (const auto &arrival : arrivals)
                (void)receiver.ingest(arrival);
            for (std::size_t i = 0; i < slices.size(); ++i) {
                if (!receiver.hasSlice(base.frame_id,
                                       slices[i].header.slice_index))
                    (void)receiver.ingest(wire[i]);
            }
            ingest_us.push_back(ingest_span.stop() * 1e6);
            replay_s += (frame_us.back() + fec_us.back() +
                         channel_us.back() + ingest_us.back()) *
                        1e-6;
        }
        for (const auto &arrival : channel.flush())
            (void)receiver.ingest(arrival);
        Span decode_span(spans, "stream.decode", static_cast<std::int64_t>(f));
        const std::vector<SessionFrame> out =
            receiver.decodeAll(static_cast<std::uint32_t>(end - f));
        const double decode_s = decode_span.stop();
        report.check(out.size() == end - f,
                     "decodeAll returns one frame per frame");
        replay_s += decode_s;
        for (std::size_t g = f; g < end; ++g)
            decode_ms.push_back(decode_s * 1e3 /
                                static_cast<double>(end - f));
        f = end;
    }

    const double n = static_cast<double>(frames.size());
    double encode_s = 0.0, payload = 0.0, wire_bytes = 0.0;
    double nack_rounds = 0.0;
    std::vector<double> recovery_ms;
    const double rtt_s = pipeline.network.rtt_ms / 1e3;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const SessionFrame &frame = run->frames[i];
        encode_s += coded[i].encode_s;
        payload += static_cast<double>(frame.payload_bytes);
        wire_bytes += static_cast<double>(frame.wire_bytes);
        nack_rounds += frame.nack_rounds;
        recovery_ms.push_back(
            (frame.backoff_s + frame.nack_rounds * rtt_s) * 1e3);
    }
    const SessionStats &stats = run->stats;
    const FecStats &fec = run->fec;
    const double lossy_groups = static_cast<double>(
        fec.single_loss_groups + fec.multi_loss_groups);
    const double recovered_groups = static_cast<double>(
        fec.single_loss_recovered + fec.multi_loss_recovered);

    report.metric("stream.frame_us_p50", computePercentiles(frame_us).p50,
                  "us");
    report.metric("stream.fec_build_us_p50", computePercentiles(fec_us).p50,
                  "us");
    report.metric("stream.channel_us_p50",
                  computePercentiles(channel_us).p50, "us");
    report.metric("stream.ingest_us_p50", computePercentiles(ingest_us).p50,
                  "us");
    report.metric("stream.decode_ms_p50", computePercentiles(decode_ms).p50,
                  "ms");
    report.metric("stream.session_residual_ms_per_frame",
                  (session_s - replay_s - encode_s) * 1e3 / n, "ms");
    report.metric("stream.parity_frac",
                  ratio(static_cast<double>(stats.parity_sent),
                        static_cast<double>(stats.chunks_sent)),
                  "fraction");
    report.metric("stream.retransmits_per_frame",
                  static_cast<double>(stats.retransmits) / n, "count");
    report.metric("stream.nack_rounds_per_frame", nack_rounds / n,
                  "count");
    report.metric("stream.fec_recovered_frac",
                  lossy_groups > 0.0 ? recovered_groups / lossy_groups
                                     : 1.0,
                  "fraction");
    report.metric("stream.recovery_ms_mean",
                  computePercentiles(recovery_ms).mean, "ms");
    report.metric("stream.overhead_frac",
                  ratio(wire_bytes - payload, payload), "fraction");
    if (coded_out != nullptr)
        *coded_out = std::move(coded);
}

void
replayServeLayer(const std::vector<serve::TenantSpec> &tenants,
                 const serve::ServeConfig &config, SpanLog *spans,
                 Report &report)
{
    serve::ServeScheduler scheduler(config, tenants);
    report.attempt();
    Span run_span(spans, "serve.run", -1);
    auto run = scheduler.run();
    const double run_s = run_span.stop();
    if (!report.expectValue(run, "ServeScheduler::run"))
        return;

    std::vector<double> encode_ms;
    double encode_s = 0.0, served = 0.0, offered = 0.0, hits = 0.0,
           shed = 0.0, dropped = 0.0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const serve::TenantSpec &spec = tenants[t];
        const serve::TenantReport &tenant = run->tenants[t];
        report.check(spec.codec.inter_mode == InterMode::kNone,
                     "serve replay needs intra-only tenants");
        VideoEncoder encoder(spec.codec);
        for (const serve::ServedFrame &frame : tenant.frames) {
            if (frame.outcome != serve::ServeOutcome::kEncoded)
                continue;
            Span span(spans, "serve.encode", frame.frame_id);
            auto encoded = encoder.encode(spec.frames[frame.frame_id]);
            const double seconds = span.stop();
            report.attempt();
            if (!report.expectValue(encoded, "replayed serve encode"))
                return;
            report.check(encoded->bitstream == frame.bitstream,
                         "replayed encode of " + spec.name + " frame " +
                             std::to_string(frame.frame_id) +
                             " differs from the served bitstream");
            encode_ms.push_back(seconds * 1e3);
            encode_s += seconds;
        }
        served += static_cast<double>(tenant.stats.served);
        offered += static_cast<double>(tenant.stats.frames);
        hits += static_cast<double>(tenant.stats.cache_hits);
        shed += static_cast<double>(tenant.stats.shed);
        dropped += static_cast<double>(tenant.stats.dropped);
    }

    const serve::ServeReport &r = *run;
    report.metric("serve.encode_ms_p50", computePercentiles(encode_ms).p50,
                  "ms");
    report.metric("serve.self_ms_per_frame",
                  ratio(run_s - encode_s, served) * 1e3, "ms");
    report.metric("serve.cache_hit_frac", ratio(hits, served),
                  "fraction");
    report.metric("serve.shed_frac", ratio(shed, offered), "fraction");
    report.metric("serve.dropped_frac", ratio(dropped, offered),
                  "fraction");
    report.metric("serve.mttr_ms", r.recovery.mttr_s * 1e3, "ms");
    report.metric("serve.device_util", r.fleet.utilization(),
                  "fraction");
    report.metric("serve.batch_frames_mean",
                  ratio(static_cast<double>(r.fleet.batched_frames),
                        static_cast<double>(r.fleet.batches)),
                  "count");
    report.metric("serve.checkpoints_per_frame",
                  ratio(static_cast<double>(r.recovery.checkpoints),
                        served),
                  "count");
}

}  // namespace perfbench
