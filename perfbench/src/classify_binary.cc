// classify_binary: the request path. Four binary (RPMB) connections,
// driven by one client thread, each keep one CLASSIFY outstanding
// against an in-process InferenceServer behind a loopback FrontEnd (a
// closed loop: a connection sends its next request when the reply
// arrives). The model is a long-pattern Trace model as in serve_bench,
// so each request is a PatternStore scan of a few long patterns. No
// text parsing, training or streaming happens in the measured phase.
//
// One operation is one CLASSIFY. It fails on an ERR reply, a malformed
// reply or a label other than RpmClassifier::Classify's.

#include <cstdio>
#include <stdexcept>
#include <sys/stat.h>

#include "core/rpm.h"
#include "serving.h"
#include "staged.h"
#include "ts/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kConnections = 4;
constexpr char kModel[] = "trace";
constexpr std::size_t kLength = 512;
constexpr std::uint64_t kModelSeed = 7;  // serve_bench's Trace draw

rpm::core::RpmOptions ServingOptions() {
  // serve_bench's long-pattern model: windows near the series length.
  rpm::core::RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 448;
  opt.fixed_sax.paa_size = 8;
  opt.fixed_sax.alphabet = 5;
  opt.gamma = 0.001;
  opt.tau_percentile = 10;
  opt.num_threads = 1;  // as train_direct's Table2Options
  return opt;
}

/// Everything one set-up builds; the last of the repeated set-ups runs.
struct Setup {
  rpm::ts::DatasetSplit split;
  std::vector<int> expected;  ///< RpmClassifier::Classify per test series
  /// Encoded CLASSIFY frames, [slot][test series].
  std::vector<std::vector<std::string>> frames;
  double train_s = 0.0;
  /// Traced runs: work counts of the staged training.
  std::map<std::string, double> counts;
  std::unique_ptr<ServingRig> rig;
};

std::string ClassifyFrame(const rpm::ts::Series& values, std::size_t slot) {
  std::string payload;
  rpm::net::PayloadWriter writer(&payload);
  writer.Str(kModel);
  writer.U32(TagTimeoutMs(slot));
  writer.F64Array(values.data(), values.size());
  return rpm::net::EncodeFrame(rpm::net::BinaryVerb::kClassify,
                               rpm::net::WireStatus::kOk, payload);
}

std::unique_ptr<Setup> BuildSetup(const Args& args, SpanRecorder* spans,
                                  Tally* tally) {
  auto setup = std::make_unique<Setup>();
  const std::size_t train_per_class = args.tiny ? 12 : 40;
  const std::size_t test_per_class = args.tiny ? 5 : 25;
  // The served model is fixed (its training draw does not follow the
  // seed: pattern count and length, and so the cost of a request, vary
  // from draw to draw); the requests are drawn from the run's seed.
  setup->split.train =
      rpm::ts::MakeTrace(train_per_class, 1, kLength, kModelSeed).train;
  setup->split.test = rpm::ts::MakeTrace(1, test_per_class, kLength,
                                         MixSeed(args.seed, 2)).test;
  const rpm::core::RpmOptions opt = ServingOptions();
  rpm::core::RpmClassifier clf(opt);
  const auto t0 = Clock::now();
  clf.Train(setup->split.train);
  setup->train_s = SecondsBetween(t0, Clock::now());
  if (spans != nullptr) {
    // The same training, stage by stage, for the per-layer numbers.
    ScopedSpan train(spans, "train");
    const StagedModel staged = TrainStaged(setup->split.train, opt, spans,
                                           train.id());
    const std::string error = CheckStaged(staged, clf, setup->split.test, opt);
    if (!error.empty()) tally->Fail("serving model: " + error);
    setup->counts = {{"opt.combos_evaluated", double(staged.combos)},
                     {"core.candidates", double(staged.candidates)},
                     {"core.patterns", double(staged.patterns.size())}};
  }
  for (const auto& inst : setup->split.test) {
    setup->expected.push_back(clf.Classify(inst.values));
  }
  setup->frames.resize(kConnections);
  for (std::size_t slot = 0; slot < kConnections; ++slot) {
    for (const auto& inst : setup->split.test) {
      setup->frames[slot].push_back(ClassifyFrame(inst.values, slot));
    }
  }
  setup->rig = StartRig(std::move(clf), kModel, kConnections,
                        /*binary=*/true, spans);
  return setup;
}

/// Results of one closed-loop phase.
struct Phase {
  std::vector<double> latency_us;
  std::vector<double> done_s;  ///< completion times since phase start
  std::size_t correct_labels = 0;
  double cpu_s = 0.0;
};

/// Runs the closed loop for `seconds`, then waits for the replies still
/// outstanding. Every reply is checked and counted in `tally` when
/// `measured` (warm-up replies are checked but not counted).
Phase RunLoop(Setup& setup, double seconds, bool measured,
              const Args& args, SpanRecorder* spans, Tally* tally) {
  struct Slot {
    Clock::time_point sent;
    std::size_t series = 0;
    std::uint64_t span = 0;
    bool busy = false;
  };
  const std::vector<Connection*> conns = setup.rig->Raw();
  const std::size_t n = setup.split.test.size();
  std::vector<Slot> slots(conns.size());
  std::size_t next = 0;
  std::size_t in_flight = 0;
  Phase phase;

  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto send = [&](std::size_t s) {
    Slot& slot = slots[s];
    slot.series = next++ % n;
    if (spans != nullptr) {
      slot.span = spans->NewId();
      setup.rig->timing->SetParent(s, slot.span);
    }
    slot.busy = true;
    ++in_flight;
    slot.sent = Clock::now();
    if (!conns[s]->Send(setup.frames[s][slot.series])) {
      throw std::runtime_error("CLASSIFY send failed");
    }
  };
  for (std::size_t s = 0; s < conns.size(); ++s) send(s);

  auto last_progress = Clock::now();
  rpm::net::Frame reply;
  while (in_flight > 0) {
    if (!PollAndPump(conns, 100)) throw std::runtime_error("connection lost");
    bool progressed = false;
    for (std::size_t s = 0; s < conns.size(); ++s) {
      while (conns[s]->NextFrame(&reply)) {
        const auto now = Clock::now();
        Slot& slot = slots[s];
        if (!slot.busy) throw std::runtime_error("unsolicited reply");
        slot.busy = false;
        --in_flight;
        progressed = true;
        rpm::net::PayloadReader reader(reply.payload);
        std::int32_t label = 0;
        const bool ok = reply.status == 0 && reader.I32(&label);
        if (args.corrupt == "classify" && measured && phase.latency_us.empty()) {
          label += 1;
        }
        const int want = setup.expected[slot.series];
        if (measured) {
          ++tally->attempted;
          if (!ok || label != want) {
            ++tally->failed;
            tally->Fail(ok ? "CLASSIFY label " + std::to_string(label) +
                                 " differs from RpmClassifier::Classify's " +
                                 std::to_string(want)
                           : "CLASSIFY answered with an error");
          }
          phase.latency_us.push_back(MicrosBetween(slot.sent, now));
          phase.done_s.push_back(SecondsBetween(start, now));
          if (ok && label == setup.split.test[slot.series].label) {
            ++phase.correct_labels;
          }
          if (spans != nullptr) {
            spans->Record("client.request", slot.span, 0, slot.sent, now);
          }
        } else if (!ok || label != want) {
          tally->Fail("warm-up CLASSIFY reply is wrong");
        }
        if (now < deadline) send(s);
      }
    }
    if (progressed) {
      last_progress = Clock::now();
    } else if (SecondsBetween(last_progress, Clock::now()) > 30.0) {
      throw std::runtime_error("no CLASSIFY reply for 30s");
    }
  }
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  return phase;
}

/// Median time of `fn` over `repeats` calls, in microseconds.
template <typename Fn>
double MedianMicros(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(MicrosBetween(t0, Clock::now()));
  }
  return Median(times);
}

}  // namespace

RunResult RunClassifyBinary(const Args& args) {
  RunResult result;
  Tally& tally = result.tally;
  std::unique_ptr<SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* spans = recorder.get();

  // Set-up, repeated for a steady median: data, training, expected
  // labels, server and front-end start, connections.
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  std::vector<double> train_s;
  for (int i = 0; i < (args.tiny ? 1 : 5); ++i) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = BuildSetup(args, spans, &tally);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    train_s.push_back(setup->train_s);
  }

  // The client runs on the server's CPU from the warm-up on.
  const ScopedCpuPin pin;
  std::printf("pin: serving threads and client on cpu %d\n", pin.cpu());
  RunLoop(*setup, args.tiny ? 0.1 : 0.5, /*measured=*/false, args, spans,
          &tally);
  std::string metrics_before;
  if (spans != nullptr) metrics_before = ScrapeMetrics(*setup->rig->conns[0]);
  const auto measure_start = Clock::now();
  const Phase phase =
      RunLoop(*setup, args.seconds, /*measured=*/true, args, spans, &tally);
  std::string metrics_after;
  if (spans != nullptr) metrics_after = ScrapeMetrics(*setup->rig->conns[0]);

  // ---- Checks after the measured loop -------------------------------
  // Rows of the served engine against the benchmark's own distance, and
  // the per-layer row/predict times on the same request series.
  const rpm::serve::ModelHandle model = setup->rig->server->registry().Get(kModel);
  const rpm::core::ClassificationEngine& engine = model->engine;
  const rpm::ts::Dataset& test = setup->split.test;
  std::vector<double> row_us;
  std::vector<double> predict_us;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const rpm::ts::Series& series = test[i].values;
    std::vector<double> row;
    row_us.push_back(MedianMicros(5, [&] { row = engine.Row(series); }));
    int label = 0;
    predict_us.push_back(MedianMicros(5, [&] { label = engine.PredictRow(row); }));
    if (label != setup->expected[i]) {
      tally.Fail("PredictRow(Row(s)) differs from RpmClassifier::Classify");
    }
    if (i < 8) {
      if (args.corrupt == "row" && i == 0) row[0] += 1e-3;
      const double err = RowError(row, NaiveRow(engine.classifier().patterns(),
                                                series));
      if (!(err <= 1.0)) {
        tally.Fail("Row differs from the reference distance by " +
                   std::to_string(err) + " tolerances");
      }
    }
  }
  const double accuracy =
      phase.latency_us.empty()
          ? 0.0
          : double(phase.correct_labels) / double(phase.latency_us.size());
  if (accuracy <= MajorityRate(test)) {
    tally.Fail("accuracy " + std::to_string(accuracy) +
               " does not exceed the majority-class rate");
  }

  if (spans == nullptr) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.train_s = Median(train_s);
    e2e.test_accuracy = accuracy;
    SetLatency(phase.latency_us, &e2e);
    const std::vector<double> ones(phase.done_s.size(), 1.0);
    e2e.throughput_rps = Median(IntervalRates(phase.done_s, ones, args.seconds,
                                              args.tiny ? 0.05 : 0.25));
    e2e.samples_per_s = e2e.throughput_rps * double(kLength);
    e2e.cpu_us_per_req = phase.cpu_s * 1e6 / double(phase.latency_us.size());
    e2e.peak_rss_mb = PeakRssMb();
    result.metrics = EndToEndMetrics(e2e);
    return result;
  }

  // ---- Per-layer numbers from the spans -----------------------------
  std::map<std::string, double> layers = ServingLayers(*spans, measure_start);
  layers.insert(setup->counts.begin(), setup->counts.end());

  // Frame decoding of the same request bytes, outside the server.
  std::vector<double> decode_us;
  for (const std::string& bytes : setup->frames[0]) {
    decode_us.push_back(MedianMicros(5, [&] {
      rpm::net::FrameAssembler assembler;
      assembler.Append(bytes);
      rpm::net::Frame frame;
      std::string name;
      std::uint32_t timeout_ms = 0;
      std::vector<double> values;
      if (assembler.Next(&frame) != rpm::net::FrameAssembler::FrameStatus::kFrame) {
        throw std::runtime_error("request frame does not decode");
      }
      rpm::net::PayloadReader reader(frame.payload);
      if (!reader.Str(&name) || !reader.U32(&timeout_ms) ||
          !reader.F64Array(&values)) {
        throw std::runtime_error("request payload does not decode");
      }
    }));
  }

  const double requests = ScrapeValue(metrics_after, "rpm_serve_requests_total") -
                          ScrapeValue(metrics_before, "rpm_serve_requests_total");
  const double batches = ScrapeValue(metrics_after, "rpm_serve_batches_total") -
                         ScrapeValue(metrics_before, "rpm_serve_batches_total");
  const double scans =
      ScrapeValue(metrics_after, "rpm_matcher_scan_windows_total") -
      ScrapeValue(metrics_before, "rpm_matcher_scan_windows_total");

  layers["net.frame_decode_us"] = Median(decode_us);
  layers["core.row_us"] = Median(row_us);
  layers["ml.predict_us"] = Median(predict_us);
  layers["serve.wait_us"] =
      layers["serve.handler_us"] - layers["core.row_us"] - layers["ml.predict_us"];
  layers["serve.batch_size"] = batches > 0 ? requests / batches : 0.0;
  layers["distance.scan_windows"] =
      phase.latency_us.empty() ? 0.0 : scans / double(phase.latency_us.size());
  std::printf("traced: latency_p50_us=%.1f (spans on) wire+wait+row+predict=%.1f\n",
              Quantile(phase.latency_us, 0.5),
              layers["net.wire_us"] + layers["serve.wait_us"] +
                  layers["core.row_us"] + layers["ml.predict_us"]);
  result.metrics = PerLayerMetrics(layers);
  mkdir(args.out_dir.c_str(), 0755);
  spans->WriteJson(args.out_dir + "/trace-classify_binary-seed" +
                       std::to_string(args.seed) + ".json",
                   measure_start);
  return result;
}

}  // namespace perfbench
