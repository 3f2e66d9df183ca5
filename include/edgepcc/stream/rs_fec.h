/**
 * @file
 * GF(256) Reed-Solomon erasure codec over FEC-group records.
 *
 * A group of k data chunks emits m parity chunks, and ANY subset of
 * up to m lost data chunks is recoverable from the surviving rows —
 * no retransmission. XOR FEC is this code with m = 1: parity row 0
 * is the plain XOR of the records, so FecScheme::kXor sends row 0
 * alone and the receiver decodes both schemes here.
 *
 * Code construction (docs/RESILIENCE.md "Reed-Solomon parity"):
 * parity row p is the GF(256) linear combination
 *
 *     P_p = sum_i C[p][i] * R_i ,   C[p][i] = (k ^ i) / ((k + p) ^ i)
 *
 * over the group's FEC *records* R_i (18-byte prefix + payload,
 * zero-padded to the longest record). C is the Cauchy matrix
 * 1 / (x_p ^ y_i) on the distinct field points x_p = k + p and
 * y_i = i, with column i scaled by k ^ i = 1 / C[0][i]. Every
 * square submatrix of a Cauchy matrix is invertible, and scaling
 * columns by nonzero constants keeps it so, which is exactly the
 * MDS property the erasure decode needs; it holds for any
 * k + m <= 255 (validated at session setup). The scaling makes row
 * 0 all ones, and `gfMulAddBytes` (platform/simd.h, dispatched
 * scalar/SSE4/AVX2 with the scalar path as the byte-identical
 * reference) runs coefficient 1 as a plain XOR.
 *
 * Decode is classic erasure algebra: subtract the known data
 * records from each surviving parity row (leaving the syndromes of
 * the e missing records), then solve the e x e subsystem by
 * Gaussian elimination over GF(256), applying the same row
 * operations to the syndrome byte rows.
 *
 * On the wire parity row p travels as fec_seq = rsParitySeq(p)
 * (0xff, 0xfe, ...); kChunkFlagRsFec marks every member of an
 * m-row group and is never set on XOR groups. m itself is never
 * transmitted — the receiver decodes as soon as (received data
 * rows) + (received parity rows) >= k.
 */

#ifndef EDGEPCC_STREAM_RS_FEC_H
#define EDGEPCC_STREAM_RS_FEC_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "edgepcc/stream/chunk_stream.h"

namespace edgepcc {

/** Maximum k + m the Cauchy construction supports. */
inline constexpr int kRsMaxGroupPlusParity = 255;

/** Encode coefficient C[row][i] for a k-data group:
 *  (k ^ i) / ((k + row) ^ i); 1 on row 0. Requires 0 <= i < k and
 *  k + row <= 255. */
std::uint8_t rsCoefficient(int k, int row, int i);

/**
 * Builds Reed-Solomon parity row `row` over one FEC group's data
 * chunks into `parity` (cleared first): the GF(256) combination of
 * the group's records, sized to the longest record. Callers reuse
 * `parity` across rows and groups; the payload bytes are read in
 * place from the views, never copied. Row 0 is the XOR parity.
 */
void buildRsParityInto(const std::vector<ChunkView> &group, int row,
                       std::vector<std::uint8_t> &parity);

/**
 * Recovers every missing data chunk of a k-data Reed-Solomon group
 * from the received data chunks (`data`, keyed by fec_seq) and
 * parity payloads (`parity_rows`, keyed by parity row index).
 *
 * Succeeds when at least (k - data.size()) parity rows are present
 * and the algebra checks out; the recovered chunks are returned in
 * ascending fec_seq order with validated headers (recoverFecRecord).
 * Returns nullopt on inconsistent input — fewer rows than
 * erasures, data sequence numbers outside [0, k), parity rows
 * shorter than a known record, or recovered records whose embedded
 * sizes don't fit — never fabricated data. Defensive against
 * adversarial metadata: every index is range-checked, so fuzzed
 * group compositions cannot read or write out of bounds.
 */
std::optional<std::vector<ParsedChunk>> recoverRsChunks(
    int k, const std::map<std::uint8_t, ParsedChunk> &data,
    const std::map<int, std::vector<std::uint8_t>> &parity_rows);

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_RS_FEC_H
