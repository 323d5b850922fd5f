// train_direct: the paper's own workload. Trains RPM on every dataset
// of the synthetic suite with the Table 2 configuration of
// bench/harness.h (DIRECT, 16 evaluations, 2 splits, 3 folds) and
// classifies each test split. One operation is one dataset trained and
// its test split classified; a round is the whole suite in an order
// drawn from the run's seed, and a run repeats whole rounds until its
// measuring time is up.
//
// The traced run replaces RpmClassifier::Train by the same stages
// called one by one (SelectSaxParameters, FindAllCandidates,
// FindDistinctPatterns, TransformDataset, FeatureClassifier::Train),
// each inside a span; a check afterwards shows the stages give the same
// patterns and predictions as RpmClassifier::Train.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <sys/stat.h>

#include "core/rpm.h"
#include "obs/metrics.h"
#include "ts/generators.h"
#include "staged.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rpm::core::RpmClassifier;
using rpm::core::RpmOptions;
using rpm::ts::Dataset;
using rpm::ts::DatasetSplit;

RpmOptions Table2Options() {
  RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kDirect;
  opt.direct_max_evaluations = 16;
  opt.param_splits = 2;
  opt.param_folds = 3;
  // One thread, as in the harness. With two, every parallel region wakes
  // a pool worker on another virtual CPU, and on a shared host that
  // wake-up delay moved train_s by a third between runs.
  opt.num_threads = 1;
  return opt;
}

// The Table 2 suite itself (the generator's default suite seed). Its
// draws are not reseeded per run: how much memory and time training
// takes depends on where DIRECT's search goes, and over suite draws the
// Trace family alone moves peak memory by 40% about one draw in six.
std::vector<DatasetSplit> MakeSuite(const Args& args) {
  rpm::ts::SuiteOptions options;
  if (!args.tiny) return rpm::ts::BenchmarkSuite(options);
  options.size_scale = 0.5;
  std::vector<DatasetSplit> suite = rpm::ts::BenchmarkSuite(options);
  suite.resize(3);
  return suite;
}

double Accuracy(const std::vector<int>& predicted, const Dataset& test) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    hits += predicted[i] == test[i].label ? 1 : 0;
  }
  return test.empty() ? 0.0 : double(hits) / double(test.size());
}

double ScanWindows() {
  return double(rpm::obs::DefaultRegistry().Snapshot().Count(
      "rpm_matcher_scan_windows_total"));
}

}  // namespace

RunResult RunTrainDirect(const Args& args) {
  const RpmOptions opt = Table2Options();
  RunResult result;
  Tally& tally = result.tally;

  // Set-up: data generation, the whole of this workload's set-up.
  std::vector<DatasetSplit> suite;
  EndToEnd e2e;
  e2e.setup_s = MedianSeconds(args.tiny ? 1 : 5, [&] { suite = MakeSuite(args); });
  std::size_t values_per_round = 0;
  for (const auto& split : suite) {
    for (const auto& inst : split.train) values_per_round += inst.values.size();
    for (const auto& inst : split.test) values_per_round += inst.values.size();
  }

  std::unique_ptr<SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* spans = recorder.get();

  // Last round's models (untraced: classifiers; traced: staged models)
  // and first round's predictions, for the checks after the loop.
  std::vector<std::unique_ptr<RpmClassifier>> classifiers(suite.size());
  std::vector<StagedModel> staged(suite.size());
  std::vector<std::vector<int>> first_predictions(suite.size());
  std::vector<double> accuracy(suite.size(), 0.0);

  std::vector<double> round_train_s;
  std::vector<double> op_us;
  std::map<std::string, std::vector<double>> stage_s;  // traced: per round
  std::size_t combos = 0;
  std::size_t candidates = 0;
  std::size_t patterns = 0;

  const double scans0 = ScanWindows();
  const double cpu0 = ProcessCpuSeconds();
  const auto origin = Clock::now();
  const auto deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(args.seconds));
  std::size_t rounds = 0;
  std::size_t span_mark = 0;
  while (rounds == 0 || Clock::now() < deadline) {
    double train_total = 0.0;
    combos = candidates = patterns = 0;
    // The run's seed orders the datasets, afresh each round.
    std::vector<std::size_t> order(suite.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937_64 rng(MixSeed(args.seed, rounds));
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t d : order) {
      const DatasetSplit& split = suite[d];
      ++tally.attempted;
      const auto t0 = Clock::now();
      std::vector<int> predicted;
      if (spans == nullptr) {
        auto clf = std::make_unique<RpmClassifier>(opt);
        clf->Train(split.train);
        train_total += SecondsBetween(t0, Clock::now());
        predicted = clf->ClassifyAll(split.test);
        combos += clf->combos_evaluated();
        candidates += clf->report().candidates_total;
        patterns += clf->patterns().size();
        classifiers[d] = std::move(clf);
      } else {
        ScopedSpan op(spans, "op");
        {
          ScopedSpan train(spans, "train", op.id());
          staged[d] = TrainStaged(split.train, opt, spans, train.id());
        }
        train_total += SecondsBetween(t0, Clock::now());
        ScopedSpan classify(spans, "classify", op.id());
        predicted = PredictStaged(staged[d], split.test, opt);
        combos += staged[d].combos;
        candidates += staged[d].candidates;
        patterns += staged[d].patterns.size();
      }
      op_us.push_back(MicrosBetween(t0, Clock::now()));

      if (args.corrupt == "accuracy") {
        for (int& label : predicted) label = -label - 1;  // never a true label
      }
      accuracy[d] = Accuracy(predicted, split.test);
      bool ok = true;
      if (accuracy[d] <= MajorityRate(split.test)) {
        ok = false;
        tally.Fail(split.name + ": accuracy " + std::to_string(accuracy[d]) +
                   " does not exceed the majority-class rate " +
                   std::to_string(MajorityRate(split.test)));
      }
      if (rounds == 0) {
        first_predictions[d] = predicted;
      } else if (predicted != first_predictions[d]) {
        ok = false;
        tally.Fail(split.name + ": predictions differ between rounds");
      }
      if (!ok) ++tally.failed;
    }
    round_train_s.push_back(train_total);
    if (spans != nullptr) {
      // This round's stage totals: the spans recorded since the last mark.
      const std::vector<Span> all = spans->Snapshot();
      std::map<std::string, double> totals;
      for (std::size_t i = span_mark; i < all.size(); ++i) {
        totals[all[i].name] += all[i].micros() * 1e-6;
      }
      for (const char* name : kStages) stage_s[name].push_back(totals[name]);
      span_mark = all.size();
    }
    ++rounds;
  }
  const double elapsed = SecondsBetween(origin, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double scans = ScanWindows() - scans0;

  // ---- Checks after the measured loop -------------------------------
  std::vector<double> row_us;
  std::vector<double> predict_us;
  for (std::size_t d = 0; d < suite.size(); ++d) {
    const DatasetSplit& split = suite[d];
    // The reference classifier: the last round's (untraced) or a fresh
    // RpmClassifier::Train (traced), compared with a staged training.
    std::unique_ptr<RpmClassifier> clf = std::move(classifiers[d]);
    StagedModel stages;
    if (spans == nullptr) {
      stages = TrainStaged(split.train, opt, nullptr, 0);
    } else {
      clf = std::make_unique<RpmClassifier>(opt);
      clf->Train(split.train);
      stages = std::move(staged[d]);
    }
    if (args.corrupt == "staged" && !stages.patterns.empty()) {
      stages.patterns[0].values[0] += 1e-9;
    }
    const std::string staged_error =
        CheckStaged(stages, *clf, split.test, opt);
    if (!staged_error.empty()) tally.Fail(split.name + ": " + staged_error);

    // Pattern-distance rows against the benchmark's own distance.
    const rpm::core::ClassificationEngine engine(*clf);
    if (!engine.has_feature_space()) continue;
    const std::size_t sample = std::min<std::size_t>(split.test.size(), 3);
    for (std::size_t i = 0; i < sample; ++i) {
      const rpm::ts::Series& series = split.test[i].values;
      const auto r0 = Clock::now();
      std::vector<double> row = engine.Row(series);
      const auto r1 = Clock::now();
      const int label = engine.PredictRow(row);
      const auto r2 = Clock::now();
      row_us.push_back(MicrosBetween(r0, r1));
      predict_us.push_back(MicrosBetween(r1, r2));
      if (label != clf->Classify(series)) {
        tally.Fail(split.name + ": PredictRow(Row(s)) differs from Classify");
      }
      if (args.corrupt == "row" && d == 0 && i == 0) row[0] += 1e-3;
      const double err = RowError(row, NaiveRow(clf->patterns(), series));
      if (!(err <= 1.0)) {
        tally.Fail(split.name + ": Row differs from the reference distance "
                   "by " + std::to_string(err) + " tolerances");
      }
    }
  }

  double accuracy_sum = 0.0;
  for (const double a : accuracy) accuracy_sum += a;

  std::fprintf(stderr,
               "[perfbench] train_direct: %zu datasets x %zu rounds in %.2fs, "
               "train median %.3fs/round\n",
               suite.size(), rounds, elapsed, Median(round_train_s));

  if (spans == nullptr) {
    e2e.train_s = Median(round_train_s);
    e2e.test_accuracy = accuracy_sum / double(suite.size());
    SetLatency(op_us, &e2e);
    e2e.throughput_rps = double(tally.attempted) / elapsed;
    e2e.samples_per_s = double(values_per_round * rounds) / elapsed;
    e2e.cpu_us_per_req = cpu * 1e6 / double(tally.attempted);
    e2e.peak_rss_mb = PeakRssMb();
    result.metrics = EndToEndMetrics(e2e);
    return result;
  }

  std::printf("traced: train_s=%.6f (median round, spans on)\n",
              Median(round_train_s));
  std::map<std::string, double> layers;
  for (const char* name : kStages) {
    layers[std::string(name) + "_s"] = Median(stage_s[name]);
  }
  layers["opt.combos_evaluated"] = double(combos);
  layers["core.candidates"] = double(candidates);
  layers["core.patterns"] = double(patterns);
  layers["distance.scan_windows"] = scans / double(tally.attempted);
  layers["core.row_us"] = Median(row_us);
  layers["ml.predict_us"] = Median(predict_us);
  result.metrics = PerLayerMetrics(layers);
  mkdir(args.out_dir.c_str(), 0755);
  spans->WriteJson(args.out_dir + "/trace-train_direct-seed" +
                       std::to_string(args.seed) + ".json",
                   origin);
  return result;
}

}  // namespace perfbench
