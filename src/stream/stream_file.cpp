#include "edgepcc/stream/stream_file.h"

#include <cstring>
#include <fstream>

#include "edgepcc/common/trace.h"
#include "edgepcc/entropy/bitstream.h"

namespace edgepcc {

namespace {
constexpr char kMagic[4] = {'E', 'P', 'C', 'V'};
// Backstop against absurd headers from corrupt files.
constexpr std::uint64_t kMaxFrames = 1000000;
}  // namespace

std::vector<std::uint8_t>
packStream(const std::vector<std::vector<std::uint8_t>> &frames)
{
    BitWriter writer;
    for (const char c : kMagic)
        writer.writeBits(static_cast<std::uint8_t>(c), 8);
    writer.writeVarint(frames.size());
    for (const auto &frame : frames)
        writer.writeBlock(frame);
    return writer.take();
}

Expected<std::vector<std::vector<std::uint8_t>>>
unpackStream(const std::vector<std::uint8_t> &bytes)
{
    BitReader reader(bytes);
    for (const char c : kMagic) {
        if (reader.readBits(8) !=
            static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(c))) {
            return corruptBitstream("not an EPCV stream");
        }
    }
    const std::uint64_t count = reader.readVarint();
    if (reader.overrun() || count > kMaxFrames)
        return corruptBitstream("EPCV stream: bad frame count");
    std::vector<std::vector<std::uint8_t>> frames;
    frames.reserve(count);
    for (std::uint64_t f = 0; f < count; ++f) {
        const ByteSpan frame = reader.readBlock();
        if (reader.overrun())
            return corruptBitstream("EPCV stream: truncated frame");
        frames.emplace_back(frame.begin(), frame.end());
    }
    return frames;
}

Status
writeStreamFile(const std::string &path,
                const std::vector<std::vector<std::uint8_t>> &frames)
{
    ScopedTrace trace("stream.file.write");
    const std::vector<std::uint8_t> bytes = packStream(frames);
    std::ofstream file(path, std::ios::binary);
    if (!file)
        return ioError("cannot open " + path + " for writing");
    file.write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file)
        return ioError("write failed for " + path);
    return Status::ok();
}

Expected<std::vector<std::vector<std::uint8_t>>>
readStreamFile(const std::string &path)
{
    ScopedTrace trace("stream.file.read");
    std::ifstream file(path,
                       std::ios::binary | std::ios::ate);
    if (!file)
        return ioError("cannot open " + path);
    const std::streamsize size = file.tellg();
    file.seekg(0);
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(size));
    if (!file.read(reinterpret_cast<char *>(bytes.data()), size))
        return ioError("read failed for " + path);
    return unpackStream(bytes);
}

}  // namespace edgepcc
