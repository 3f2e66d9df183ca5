/**
 * @file
 * The six evaluation videos (paper Table I), as synthetic stand-ins.
 *
 * Names, frame counts and per-frame point counts mirror the 8iVFB
 * and MVUB videos the paper uses; an optional scale factor shrinks
 * the point counts (and proportionally the synthetic body) so bench
 * runs on small hosts stay fast. Frame counts are not scaled —
 * benches choose how many frames to encode.
 */

#ifndef EDGEPCC_DATASET_CATALOGUE_H
#define EDGEPCC_DATASET_CATALOGUE_H

#include <vector>

#include "edgepcc/dataset/synthetic_human.h"

namespace edgepcc {

/** Table I rows: name, #frames, #points/frame, dataset family. */
struct CatalogueEntry {
    const char *name;
    int num_frames;
    std::size_t points_per_frame;
    bool upper_body_only;  ///< MVUB videos are upper-body captures
};

/** The paper's six videos. */
std::vector<CatalogueEntry> paperCatalogue();

/**
 * Builds the VideoSpec for one catalogue entry at the given scale
 * (0 < scale <= 1; target points = points_per_frame * scale).
 */
VideoSpec makeVideoSpec(const CatalogueEntry &entry,
                        double scale = 1.0);

/** Specs for all six videos at one scale. */
std::vector<VideoSpec> paperVideoSpecs(double scale = 1.0);

/**
 * Reads the workload scale from the EDGEPCC_SCALE environment
 * variable, clamped to (0, 1]. Unset, or a value that does not
 * parse in full as a finite number > 0, gives `fallback`.
 */
double workloadScaleFromEnv(double fallback = 0.15);

/**
 * Frames per video from EDGEPCC_FRAMES. Unset, or a value that
 * does not parse in full as a positive int, gives `fallback`.
 */
int framesFromEnv(int fallback = 3);

}  // namespace edgepcc

#endif  // EDGEPCC_DATASET_CATALOGUE_H
