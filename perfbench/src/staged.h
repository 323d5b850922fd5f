// Stage-by-stage RPM training: the public stages RpmClassifier::Train
// runs, called one by one so a traced run can put each in its own span.
// CheckStaged compares the result with RpmClassifier::Train.

#ifndef PERFBENCH_STAGED_H_
#define PERFBENCH_STAGED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/rpm.h"
#include "ml/simple_classifiers.h"

namespace perfbench {

/// Span names of the training stages, in pipeline order.
inline constexpr const char* kStages[] = {
    "core.select_sax", "core.find_candidates", "core.find_distinct",
    "core.transform", "ml.fit"};

/// The output of one stage-by-stage training.
struct StagedModel {
  std::vector<rpm::core::RepresentativePattern> patterns;
  std::unique_ptr<rpm::ml::FeatureClassifier> classifier;
  int majority_label = 0;
  std::size_t combos = 0;
  std::size_t candidates = 0;
};

/// SelectSaxParameters, FindAllCandidates, FindDistinctPatterns,
/// TransformDataset and FeatureClassifier::Train, each in a span named
/// core.select_sax, core.find_candidates, core.find_distinct,
/// core.transform and ml.fit under `parent` (no spans when `spans` is
/// null).
StagedModel TrainStaged(const rpm::ts::Dataset& train,
                        const rpm::core::RpmOptions& opt, SpanRecorder* spans,
                        std::uint64_t parent);

/// Labels of `test` under a staged model.
std::vector<int> PredictStaged(const StagedModel& model,
                               const rpm::ts::Dataset& test,
                               const rpm::core::RpmOptions& opt);

/// Empty when `staged` has the same patterns as `clf` and predicts the
/// same labels on `test`; otherwise what differs.
std::string CheckStaged(const StagedModel& staged,
                        const rpm::core::RpmClassifier& clf,
                        const rpm::ts::Dataset& test,
                        const rpm::core::RpmOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_STAGED_H_
