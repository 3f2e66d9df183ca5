/**
 * @file
 * Umbrella header: everything a typical EdgePCC application needs.
 *
 * Fine-grained headers remain available for code that wants smaller
 * include surfaces (see README "Architecture" for the module map).
 */

#ifndef EDGEPCC_EDGEPCC_H
#define EDGEPCC_EDGEPCC_H

#include "edgepcc/common/status.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/catalogue.h"
#include "edgepcc/dataset/ply_io.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/geometry/point_cloud.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/lossy_channel.h"
#include "edgepcc/stream/pipeline.h"
#include "edgepcc/stream/stream_file.h"
#include "edgepcc/stream/stream_session.h"

#endif  // EDGEPCC_EDGEPCC_H
