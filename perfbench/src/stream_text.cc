// stream_text: stateful session writes. Two text-codec connections,
// driven by one client thread, each own one stream session (window 128,
// hop 16) and feed a generated CBF signal in 256-sample STREAM_FEED
// lines, one line outstanding per connection. When the server accepts
// only part of a feed, the next line starts with the remainder. The
// signal repeats with a fixed period, so every window's label under
// batch classification is computed once at set-up. The work is text
// value decoding and stream scoring on the front-end shard thread; the
// batching queue is not used.
//
// One operation is one STREAM_FEED. It fails on an ERR or malformed
// reply, or when one of its decisions differs from the batch label of
// the same window.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <stdexcept>
#include <sys/stat.h>

#include "core/rpm.h"
#include "serving.h"
#include "staged.h"
#include "stream/stream_scorer.h"
#include "ts/generators.h"
#include "ts/znorm.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kConnections = 2;
constexpr char kModel[] = "cbf";
constexpr std::size_t kLength = 128;  // CBF series length
constexpr std::size_t kWindow = 128;
constexpr std::size_t kHop = 16;
constexpr std::size_t kChunk = 256;
constexpr std::uint64_t kModelSeed = 778;
constexpr int kTrainRepeats = 20;  // trainings per set-up

rpm::core::RpmOptions ServingOptions() {
  // stream_bench's CBF model.
  rpm::core::RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 32;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.num_threads = 1;  // as train_direct's Table2Options
  return opt;
}

/// One connection's repeating signal and what the server must say on it.
struct Feed {
  std::vector<double> values;      ///< one period
  std::vector<std::string> text;   ///< values[i] printed exactly
  std::vector<int> instance_label;  ///< true label per kLength samples
  std::vector<int> window_label;    ///< batch label per hop window
  std::string session;
};

struct Setup {
  std::vector<Feed> feeds;
  std::vector<double> train_s;  ///< wall time of each training
  /// Traced runs: work counts of the staged training.
  std::map<std::string, double> counts;
  std::unique_ptr<ServingRig> rig;
};

// Window k of a feed: period positions [k*hop, k*hop + window), cyclic,
// z-normalized as UCR instances are.
rpm::ts::Series Window(const Feed& feed, std::size_t k) {
  rpm::ts::Series w(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    w[i] = feed.values[(k * kHop + i) % feed.values.size()];
  }
  return rpm::ts::ZNormalize(w);
}

std::unique_ptr<Setup> BuildSetup(const Args& args, SpanRecorder* spans,
                                  Tally* tally) {
  auto setup = std::make_unique<Setup>();
  // A fixed model (stream_bench's CBF draw); the feeds follow the seed.
  const rpm::ts::DatasetSplit split = rpm::ts::MakeCbf(
      args.tiny ? 6 : 30, args.tiny ? 3 : 6, kLength, kModelSeed);
  const rpm::core::RpmOptions opt = ServingOptions();
  // The training takes about 16 ms, and single trainings range from 16
  // to 40 ms as host stalls hit them. Each set-up trains the same model
  // kTrainRepeats times, so a run's trainings span about 2 s, and
  // train_s is the lower quartile of them all.
  rpm::core::RpmClassifier clf(opt);
  for (int i = 0; i < (args.tiny ? 1 : kTrainRepeats); ++i) {
    clf = rpm::core::RpmClassifier(opt);
    const auto t0 = Clock::now();
    clf.Train(split.train);
    setup->train_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  if (spans != nullptr) {
    ScopedSpan train(spans, "train");
    const StagedModel staged = TrainStaged(split.train, opt, spans, train.id());
    const std::string error = CheckStaged(staged, clf, split.test, opt);
    if (!error.empty()) tally->Fail("serving model: " + error);
    setup->counts = {{"opt.combos_evaluated", double(staged.combos)},
                     {"core.candidates", double(staged.candidates)},
                     {"core.patterns", double(staged.patterns.size())}};
  }

  const std::size_t per_class = args.tiny ? 10 : 100;
  for (std::size_t c = 0; c < kConnections; ++c) {
    Feed feed;
    const rpm::ts::DatasetSplit signal =
        rpm::ts::MakeCbf(1, per_class, kLength, MixSeed(args.seed, 10 + c));
    for (const auto& inst : signal.test) {
      feed.values.insert(feed.values.end(), inst.values.begin(),
                         inst.values.end());
      feed.instance_label.push_back(inst.label);
    }
    char buf[32];
    for (const double v : feed.values) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      feed.text.emplace_back(buf);
    }
    rpm::ts::Dataset windows;
    for (std::size_t k = 0; k < feed.values.size() / kHop; ++k) {
      windows.Add(0, Window(feed, k));
    }
    feed.window_label = clf.ClassifyAll(windows);
    setup->feeds.push_back(std::move(feed));
  }

  setup->rig = StartRig(std::move(clf), kModel, kConnections,
                        /*binary=*/false, spans);
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::string reply;
    const std::string open = "STREAM_OPEN " + std::string(kModel) + " " +
                             std::to_string(kWindow) + " " +
                             std::to_string(kHop);
    if (!setup->rig->conns[c]->Send(open + "\n") ||
        !setup->rig->conns[c]->ReadLine(&reply)) {
      throw std::runtime_error("STREAM_OPEN failed");
    }
    // "OK stream s<N> window=128 hop=16"; slot c must own s<c+1>.
    const std::string want = "OK stream s" + std::to_string(c + 1) + " ";
    if (reply.compare(0, want.size(), want) != 0) {
      throw std::runtime_error("unexpected STREAM_OPEN reply: " + reply);
    }
    setup->feeds[c].session = "s" + std::to_string(c + 1);
  }
  return setup;
}

struct Phase {
  std::vector<double> latency_us;
  std::vector<double> done_s;
  std::vector<double> accepted;  ///< samples accepted per feed
  std::size_t aligned = 0;       ///< decisions on instance-aligned windows
  std::size_t aligned_correct = 0;
  double cpu_s = 0.0;
};

/// Per-connection feed state; persists across phases with the session.
struct Cursor {
  std::uint64_t position = 0;  ///< stream samples accepted so far
  Clock::time_point sent;
  std::uint64_t span = 0;
  bool busy = false;
};

// Checks one "OK fed <n> decisions=<d> k:label:margin ..." reply and
// returns the accepted count, or -1 for an ERR or malformed reply. A
// decision that differs from the batch label sets *problem.
long CheckFeedReply(const std::string& reply, const Feed& feed, bool corrupt,
                    Phase* phase, std::string* problem) {
  const char* p = reply.c_str();
  if (reply.compare(0, 7, "OK fed ") != 0) {
    *problem = "STREAM_FEED answered '" + reply.substr(0, 60) + "'";
    return -1;
  }
  char* end = nullptr;
  const long accepted = std::strtol(p + 7, &end, 10);
  if (accepted < 0 || std::size_t(accepted) > kChunk ||
      std::strncmp(end, " decisions=", 11) != 0) {
    *problem = "malformed STREAM_FEED reply";
    return -1;
  }
  const long count = std::strtol(end + 11, &end, 10);
  const std::size_t windows = feed.window_label.size();
  for (long i = 0; i < count; ++i) {
    // " <k>:<label>:<margin>[:early]"; each separator is checked before
    // parsing past it, so a short reply cannot be read beyond its end.
    if (*end != ' ') {
      *problem = "malformed STREAM_FEED decision list";
      return -1;
    }
    const unsigned long long k = std::strtoull(end + 1, &end, 10);
    if (*end != ':') {
      *problem = "malformed STREAM_FEED decision";
      return -1;
    }
    long label = std::strtol(end + 1, &end, 10);
    if (*end != ':') {
      *problem = "malformed STREAM_FEED decision";
      return -1;
    }
    std::strtod(end + 1, &end);  // margin
    if (std::strncmp(end, ":early", 6) == 0) end += 6;
    if (corrupt && i == 0) label += 1;
    if (label != feed.window_label[k % windows]) {
      *problem = "stream decision for window " + std::to_string(k) +
                 " differs from batch classification";
    }
    if ((k * kHop) % kLength == 0) {
      const std::size_t instance =
          std::size_t(k * kHop / kLength) % feed.instance_label.size();
      ++phase->aligned;
      if (label == feed.instance_label[instance]) ++phase->aligned_correct;
    }
  }
  return accepted;
}

Phase RunLoop(Setup& setup, std::vector<Cursor>& cursors, double seconds,
              bool measured, const Args& args, SpanRecorder* spans,
              Tally* tally) {
  const std::vector<Connection*> conns = setup.rig->Raw();
  std::size_t in_flight = 0;
  Phase phase;
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::string line;
  auto send = [&](std::size_t c) {
    const Feed& feed = setup.feeds[c];
    Cursor& cur = cursors[c];
    line = "STREAM_FEED " + feed.session + " ";
    for (std::size_t i = 0; i < kChunk; ++i) {
      if (i > 0) line += ',';
      line += feed.text[(cur.position + i) % feed.text.size()];
    }
    line += '\n';
    if (spans != nullptr) {
      cur.span = spans->NewId();
      setup.rig->timing->SetParent(c, cur.span);
    }
    cur.busy = true;
    ++in_flight;
    cur.sent = Clock::now();
    if (!conns[c]->Send(line)) throw std::runtime_error("STREAM_FEED send failed");
  };
  for (std::size_t c = 0; c < conns.size(); ++c) send(c);

  auto last_progress = Clock::now();
  std::string reply;
  while (in_flight > 0) {
    if (!PollAndPump(conns, 100)) throw std::runtime_error("connection lost");
    bool progressed = false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      while (conns[c]->NextLine(&reply)) {
        const auto now = Clock::now();
        Cursor& cur = cursors[c];
        if (!cur.busy) throw std::runtime_error("unsolicited reply");
        cur.busy = false;
        --in_flight;
        progressed = true;
        std::string problem;
        const bool corrupt = args.corrupt == "stream" && measured &&
                             phase.latency_us.empty();
        const long accepted = CheckFeedReply(reply, setup.feeds[c], corrupt,
                                             &phase, &problem);
        if (!problem.empty()) {
          tally->Fail(problem);
          if (measured) ++tally->failed;
        }
        // An ERR reply accepted nothing; the next line re-offers it all.
        const std::uint64_t taken = std::uint64_t(std::max(accepted, 0L));
        cur.position += taken;
        if (measured) {
          ++tally->attempted;
          phase.latency_us.push_back(MicrosBetween(cur.sent, now));
          phase.done_s.push_back(SecondsBetween(start, now));
          phase.accepted.push_back(double(taken));
          if (spans != nullptr) {
            spans->Record("client.request", cur.span, 0, cur.sent, now);
          }
        }
        if (now < deadline) send(c);
      }
    }
    if (progressed) {
      last_progress = Clock::now();
    } else if (SecondsBetween(last_progress, Clock::now()) > 30.0) {
      throw std::runtime_error("no STREAM_FEED reply for 30s");
    }
  }
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  return phase;
}

}  // namespace

RunResult RunStreamText(const Args& args) {
  RunResult result;
  Tally& tally = result.tally;
  std::unique_ptr<SpanRecorder> recorder;
  if (args.trace) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* spans = recorder.get();

  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  std::vector<double> train_s;
  for (int i = 0; i < (args.tiny ? 1 : 5); ++i) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = BuildSetup(args, spans, &tally);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    train_s.insert(train_s.end(), setup->train_s.begin(),
                   setup->train_s.end());
  }

  // The client runs on the server's CPU from the warm-up on.
  const ScopedCpuPin pin;
  std::printf("pin: serving threads and client on cpu %d\n", pin.cpu());
  std::vector<Cursor> cursors(kConnections);
  RunLoop(*setup, cursors, args.tiny ? 0.1 : 0.5, /*measured=*/false, args,
          spans, &tally);
  std::string metrics_before;
  if (spans != nullptr) metrics_before = ScrapeMetrics(*setup->rig->conns[0]);
  const auto measure_start = Clock::now();
  const Phase phase = RunLoop(*setup, cursors, args.seconds,
                              /*measured=*/true, args, spans, &tally);
  std::string metrics_after;
  if (spans != nullptr) metrics_after = ScrapeMetrics(*setup->rig->conns[0]);

  // ---- Checks after the measured loop -------------------------------
  const rpm::serve::ModelHandle model =
      setup->rig->server->registry().Get(kModel);
  const rpm::core::ClassificationEngine& engine = model->engine;
  const Feed& feed0 = setup->feeds[0];
  std::vector<double> row_us;
  std::vector<double> predict_us;
  rpm::core::TransformScratch scratch;
  std::vector<double> row;
  const std::size_t sample = std::min<std::size_t>(feed0.window_label.size(), 200);
  for (std::size_t k = 0; k < sample; ++k) {
    const rpm::ts::Series window = Window(feed0, k);
    const auto r0 = Clock::now();
    engine.RowInto(window, &scratch, &row);
    const auto r1 = Clock::now();
    const int label = engine.PredictRow(row);
    const auto r2 = Clock::now();
    row_us.push_back(MicrosBetween(r0, r1));
    predict_us.push_back(MicrosBetween(r1, r2));
    if (label != feed0.window_label[k]) {
      tally.Fail("PredictRow(RowInto(w)) differs from batch classification");
    }
    if (k < 16) {
      if (args.corrupt == "row" && k == 0) row[0] += 1e-3;
      const double err =
          RowError(row, NaiveRow(engine.classifier().patterns(), window));
      if (!(err <= 1.0)) {
        tally.Fail("RowInto differs from the reference distance by " +
                   std::to_string(err) + " tolerances");
      }
    }
  }
  const double accuracy =
      phase.aligned == 0 ? 0.0
                         : double(phase.aligned_correct) / double(phase.aligned);
  std::map<int, std::size_t> label_counts;
  std::size_t instances = 0;
  for (const Feed& feed : setup->feeds) {
    for (const int label : feed.instance_label) ++label_counts[label];
    instances += feed.instance_label.size();
  }
  std::size_t majority = 0;
  for (const auto& [label, count] : label_counts) {
    majority = std::max(majority, count);
  }
  if (accuracy <= double(majority) / double(instances)) {
    tally.Fail("accuracy " + std::to_string(accuracy) +
               " does not exceed the majority-class rate");
  }
  const double interval = args.tiny ? 0.05 : 0.25;

  if (spans == nullptr) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.train_s = Quantile(train_s, 0.25);
    e2e.test_accuracy = accuracy;
    SetLatency(phase.latency_us, &e2e);
    const std::vector<double> ones(phase.done_s.size(), 1.0);
    e2e.throughput_rps =
        Median(IntervalRates(phase.done_s, ones, args.seconds, interval));
    e2e.samples_per_s = Median(
        IntervalRates(phase.done_s, phase.accepted, args.seconds, interval));
    e2e.cpu_us_per_req = phase.cpu_s * 1e6 / double(phase.latency_us.size());
    e2e.peak_rss_mb = PeakRssMb();
    result.metrics = EndToEndMetrics(e2e);
    return result;
  }

  // ---- Per-layer numbers ---------------------------------------------
  std::map<std::string, double> layers = ServingLayers(*spans, measure_start);
  layers.insert(setup->counts.begin(), setup->counts.end());

  // StreamScorer::Feed of the same 256-sample chunks, in-process.
  std::vector<double> feed_us;
  {
    rpm::stream::StreamOptions options;
    options.window = kWindow;
    options.hop = kHop;
    const std::string error = rpm::stream::ValidateStreamOptions(&options);
    if (!error.empty()) throw std::runtime_error(error);
    rpm::stream::StreamScorer scorer(&engine, options);
    std::vector<rpm::stream::StreamDecision> decisions;
    std::vector<double> chunk(kChunk);
    std::uint64_t position = 0;
    for (std::size_t i = 0; i < (args.tiny ? 50 : 1000); ++i) {
      for (std::size_t j = 0; j < kChunk; ++j) {
        chunk[j] = feed0.values[(position + j) % feed0.values.size()];
      }
      decisions.clear();
      const auto f0 = Clock::now();
      const std::size_t accepted =
          scorer.Feed(rpm::ts::SeriesView(chunk.data(), chunk.size()), &decisions);
      feed_us.push_back(MicrosBetween(f0, Clock::now()));
      position += accepted;
    }
  }

  const double feeds = double(phase.latency_us.size());
  auto delta = [&](const char* name) {
    return ScrapeValue(metrics_after, name) - ScrapeValue(metrics_before, name);
  };
  layers["stream.feed_us"] = Median(feed_us);
  layers["serve.text_codec_us"] =
      layers["serve.handler_us"] - layers["stream.feed_us"];
  layers["core.row_us"] = Median(row_us);
  layers["ml.predict_us"] = Median(predict_us);
  layers["stream.decisions"] = delta("rpm_stream_decisions_total");
  layers["stream.truncated_feeds"] = delta("rpm_stream_truncated_feeds_total");
  layers["distance.scan_windows"] =
      feeds > 0 ? delta("rpm_matcher_scan_windows_total") / feeds : 0.0;
  std::printf("traced: latency_p50_us=%.1f samples_per_s=%.0f (spans on)\n",
              Quantile(phase.latency_us, 0.5),
              Median(IntervalRates(phase.done_s, phase.accepted, args.seconds,
                                   interval)));
  result.metrics = PerLayerMetrics(layers);
  mkdir(args.out_dir.c_str(), 0755);
  spans->WriteJson(args.out_dir + "/trace-stream_text-seed" +
                       std::to_string(args.seed) + ".json",
                   measure_start);
  return result;
}

}  // namespace perfbench
