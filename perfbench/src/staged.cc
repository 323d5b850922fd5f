#include "staged.h"

namespace perfbench {

namespace {

int MajorityLabel(const rpm::ts::Dataset& train) {
  const auto hist = train.ClassHistogram();
  int majority = hist.begin()->first;
  for (const auto& [label, count] : hist) {
    if (count > hist.at(majority)) majority = label;
  }
  return majority;
}

bool SamePatterns(const std::vector<rpm::core::RepresentativePattern>& a,
                  const std::vector<rpm::core::RepresentativePattern>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].class_label != b[i].class_label || a[i].values != b[i].values) {
      return false;
    }
  }
  return true;
}

}  // namespace

StagedModel TrainStaged(const rpm::ts::Dataset& train,
                        const rpm::core::RpmOptions& opt, SpanRecorder* spans,
                        std::uint64_t parent) {
  StagedModel model;
  model.majority_label = MajorityLabel(train);
  rpm::core::ParameterSelectionResult params;
  {
    ScopedSpan span(spans, "core.select_sax", parent);
    params = rpm::core::SelectSaxParameters(train, opt);
  }
  model.combos = params.combos_evaluated;
  std::vector<rpm::core::PatternCandidate> candidates;
  {
    ScopedSpan span(spans, "core.find_candidates", parent);
    candidates = rpm::core::FindAllCandidates(train, params.sax_by_class, opt);
  }
  model.candidates = candidates.size();
  {
    ScopedSpan span(spans, "core.find_distinct", parent);
    model.patterns = rpm::core::FindDistinctPatterns(train, candidates, opt);
  }
  if (model.patterns.empty()) return model;  // majority-class fallback
  // Training rows are never rotation-augmented, as in RpmClassifier::Train.
  rpm::core::TransformOptions transform;
  transform.approximate = opt.approximate_matching;
  transform.approx.refine_top_k = opt.approx_refine_top_k;
  transform.num_threads = opt.num_threads;
  rpm::ml::FeatureDataset features;
  {
    ScopedSpan span(spans, "core.transform", parent);
    features = rpm::core::TransformDataset(model.patterns, train, transform);
  }
  ScopedSpan span(spans, "ml.fit", parent);
  model.classifier = rpm::ml::MakeFeatureClassifier(opt.final_classifier,
                                                    opt.svm, opt.knn_k);
  model.classifier->Train(features);
  return model;
}

std::vector<int> PredictStaged(const StagedModel& model,
                               const rpm::ts::Dataset& test,
                               const rpm::core::RpmOptions& opt) {
  if (model.classifier == nullptr) {
    return std::vector<int>(test.size(), model.majority_label);
  }
  rpm::core::TransformOptions transform;
  transform.rotation_invariant = opt.rotation_invariant;
  transform.approximate = opt.approximate_matching;
  transform.approx.refine_top_k = opt.approx_refine_top_k;
  transform.num_threads = opt.num_threads;
  const rpm::ml::FeatureDataset rows =
      rpm::core::TransformDataset(model.patterns, test, transform);
  std::vector<int> out;
  out.reserve(rows.size());
  for (const auto& row : rows.x) out.push_back(model.classifier->Predict(row));
  return out;
}

std::string CheckStaged(const StagedModel& staged,
                        const rpm::core::RpmClassifier& clf,
                        const rpm::ts::Dataset& test,
                        const rpm::core::RpmOptions& opt) {
  if (!SamePatterns(staged.patterns, clf.patterns())) {
    return "staged training found other patterns than RpmClassifier::Train";
  }
  if (PredictStaged(staged, test, opt) != clf.ClassifyAll(test)) {
    return "staged model predicts other labels than RpmClassifier::Train";
  }
  return "";
}

}  // namespace perfbench
