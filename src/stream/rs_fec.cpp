#include "edgepcc/stream/rs_fec.h"

#include <algorithm>
#include <utility>

#include "edgepcc/common/gf256.h"
#include "edgepcc/common/trace.h"
#include "edgepcc/platform/simd.h"

namespace edgepcc {

std::uint8_t
rsCoefficient(int k, int row, int i)
{
    // Cauchy points: x_row = k + row (parity), y_i = i (data). All
    // distinct for k + row <= 255 and i < k, so x ^ y is never 0
    // and every square submatrix of 1 / (x ^ y) is invertible.
    // Column i is then scaled by k ^ i = 1 / C[0][i]: scaling a
    // column by a nonzero constant keeps every square submatrix
    // invertible (MDS), and row 0 becomes all ones, so parity row 0
    // is the plain XOR of the records.
    return gfDiv(static_cast<std::uint8_t>(k ^ i),
                 static_cast<std::uint8_t>((k + row) ^ i));
}

namespace {

/** dst ^= coeff * record(header, payload), the record being the
 *  18-byte FEC prefix followed by the payload. `dst` must already
 *  span the record. */
void
mulAddRecord(std::uint8_t *dst, const ChunkHeader &header,
             ByteSpan payload, std::uint8_t coeff)
{
    std::uint8_t prefix[kFecRecordPrefixBytes];
    writeFecRecordPrefix(prefix, header, payload.size());
    gfMulAddBytes(dst, prefix, coeff, kFecRecordPrefixBytes);
    if (!payload.empty())
        gfMulAddBytes(dst + kFecRecordPrefixBytes, payload.data(),
                      coeff, payload.size());
}

}  // namespace

void
buildRsParityInto(const std::vector<ChunkView> &group, int row,
                  std::vector<std::uint8_t> &parity)
{
    ScopedTrace trace("stream.rs_encode");
    const int k = static_cast<int>(group.size());
    std::size_t longest = 0;
    for (const ChunkView &chunk : group)
        longest = std::max(longest, kFecRecordPrefixBytes +
                                        chunk.payload.size());
    parity.assign(longest, 0);
    for (int i = 0; i < k; ++i)
        mulAddRecord(parity.data(), group[i].header,
                     group[i].payload, rsCoefficient(k, row, i));
}

std::optional<std::vector<ParsedChunk>>
recoverRsChunks(int k,
                const std::map<std::uint8_t, ParsedChunk> &data,
                const std::map<int, std::vector<std::uint8_t>>
                    &parity_rows)
{
    ScopedTrace trace("stream.rs_decode");
    if (k < 1 || k > kRsMaxGroupPlusParity ||
        data.size() > static_cast<std::size_t>(k))
        return std::nullopt;
    for (const auto &[seq, chunk] : data) {
        if (static_cast<int>(seq) >= k)
            return std::nullopt;
    }

    // Erasures: the data sequence numbers that never arrived.
    std::vector<int> missing;
    for (int i = 0; i < k; ++i) {
        if (data.find(static_cast<std::uint8_t>(i)) == data.end())
            missing.push_back(i);
    }
    const std::size_t e = missing.size();
    if (e == 0)
        return std::vector<ParsedChunk>{};

    // Usable parity rows: row indices a valid encoder could have
    // produced (k + row fits the field), all the same length, long
    // enough to cover every known record. Anything else is an
    // inconsistent (possibly adversarial) group composition.
    std::vector<int> rows;
    std::size_t row_len = 0;
    for (const auto &[row, payload] : parity_rows) {
        if (row < 0 || k + row > kRsMaxGroupPlusParity)
            return std::nullopt;
        if (rows.empty())
            row_len = payload.size();
        else if (payload.size() != row_len)
            return std::nullopt;
        if (rows.size() < e)
            rows.push_back(row);
    }
    if (rows.size() < e || row_len < kFecRecordPrefixBytes)
        return std::nullopt;
    for (const auto &[seq, chunk] : data) {
        if (kFecRecordPrefixBytes + chunk.payload.size() > row_len)
            return std::nullopt;
    }

    // Syndromes: each surviving parity row minus the contribution
    // of every known data record leaves the combination of the
    // missing records alone.
    std::vector<std::vector<std::uint8_t>> syn(e);
    for (std::size_t r = 0; r < e; ++r) {
        syn[r] = parity_rows.at(rows[r]);
        for (const auto &[seq, chunk] : data)
            mulAddRecord(syn[r].data(), chunk.header,
                         ByteSpan(chunk.payload),
                         rsCoefficient(k, rows[r], seq));
    }

    // Solve the e x e Cauchy subsystem by Gauss-Jordan over
    // GF(256), mirroring every row operation onto the syndrome byte
    // rows (gfMulAddBytes is the dispatched inner loop).
    std::vector<std::vector<std::uint8_t>> a(
        e, std::vector<std::uint8_t>(e));
    for (std::size_t r = 0; r < e; ++r) {
        for (std::size_t c = 0; c < e; ++c)
            a[r][c] = rsCoefficient(k, rows[r], missing[c]);
    }
    std::vector<std::uint8_t> scratch;
    for (std::size_t col = 0; col < e; ++col) {
        std::size_t pivot = col;
        while (pivot < e && a[pivot][col] == 0)
            ++pivot;
        if (pivot == e)
            return std::nullopt;  // singular: inconsistent group
        if (pivot != col) {
            std::swap(a[pivot], a[col]);
            std::swap(syn[pivot], syn[col]);
        }
        const std::uint8_t inv = gfInv(a[col][col]);
        if (inv != 1) {
            for (std::size_t c = 0; c < e; ++c)
                a[col][c] = gfMul(a[col][c], inv);
            scratch = std::move(syn[col]);
            syn[col].assign(row_len, 0);
            gfMulAddBytes(syn[col].data(), scratch.data(), inv,
                          row_len);
        }
        for (std::size_t r = 0; r < e; ++r) {
            if (r == col || a[r][col] == 0)
                continue;
            const std::uint8_t factor = a[r][col];
            for (std::size_t c = 0; c < e; ++c)
                a[r][c] = static_cast<std::uint8_t>(
                    a[r][c] ^ gfMul(factor, a[col][c]));
            gfMulAddBytes(syn[r].data(), syn[col].data(), factor,
                          row_len);
        }
    }

    std::vector<ParsedChunk> recovered;
    recovered.reserve(e);
    for (std::size_t r = 0; r < e; ++r) {
        std::optional<ParsedChunk> chunk =
            recoverFecRecord(syn[r], kChunkFlagRsFec);
        // The record embeds its own fec_seq; a mismatch with the
        // erasure position means the algebra solved a group that
        // was never coded together.
        if (!chunk.has_value() ||
            chunk->header.fec_seq !=
                static_cast<std::uint8_t>(missing[r]))
            return std::nullopt;
        recovered.push_back(std::move(*chunk));
    }
    return recovered;
}

}  // namespace edgepcc
