// Golden transcript of the serving protocol over both codecs.
//
// A fixed script of requests, each written once as a text line and once
// as a binary frame, is driven through serve::NetHandler in-process
// (OnTextLine / OnFrame), against a fresh server per codec. Every reply
// is rendered to one transcript line: text replies verbatim, binary
// replies as verb, status, close flag and payload (hex, or the decoded
// detail string of an error frame). Bodies that vary between runs
// (STATS JSON, TRACE JSON, the METRICS exposition) are masked down to
// their shape. The rendered transcript must equal
// tests/protocol_transcript.golden byte for byte; on mismatch the
// actual transcript is written next to the test binary
// (protocol_transcript.actual) for diffing.
//
// The script covers every verb's success path and each error path,
// including the cases where the two codecs deliberately differ (text
// "TRACE 0" and a non-positive text timeout are rejected, while binary
// 0 means "default") and text numbers too large for their binary field.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "net/frame.h"
#include "serve/net_handler.h"
#include "serve/server.h"
#include "ts/generators.h"

namespace rpm {
namespace {

using net::BinaryVerb;
using net::PayloadWriter;

struct TrainedFixture {
  ts::DatasetSplit split;
  core::RpmClassifier classifier;
};

const TrainedFixture& Fixture() {
  static const TrainedFixture* fixture = [] {
    core::RpmOptions options;
    options.search = core::ParameterSearch::kFixed;
    options.fixed_sax.window = 32;
    options.fixed_sax.paa_size = 5;
    options.fixed_sax.alphabet = 4;
    auto* f = new TrainedFixture{ts::MakeCbf(10, 6, 128, 778),
                                 core::RpmClassifier(options)};
    f->classifier.Train(f->split.train);
    return f;
  }();
  return *fixture;
}

core::RpmClassifier TrainedCopy() {
  std::stringstream buffer;
  Fixture().classifier.Save(buffer);
  return core::RpmClassifier::Load(buffer);
}

serve::ServerOptions ScriptOptions() {
  serve::ServerOptions options;
  options.batching.max_batch_size = 8;
  // Long enough that a request stays queued while the next one arrives
  // (the OVERLOADED step), short enough to keep the script quick.
  options.batching.max_linger = std::chrono::milliseconds(100);
  options.batching.max_queue_depth = 1;
  options.batching.num_threads = 1;
  options.default_timeout = std::chrono::milliseconds(10000);
  options.streaming.max_sessions = 2;
  return options;
}

std::string Csv(const std::vector<double>& values) {
  std::string out;
  char buf[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    out += buf;
  }
  return out;
}

std::vector<double> Instance(std::size_t i) {
  const auto& v = Fixture().split.test.instances()[i].values;
  return std::vector<double>(v.begin(), v.end());
}

std::vector<double> StreamSamples(std::size_t n) {
  std::vector<double> out;
  for (const auto& inst : Fixture().split.test.instances()) {
    out.insert(out.end(), inst.values.begin(), inst.values.end());
    if (out.size() >= n) break;
  }
  out.resize(n);
  return out;
}

// ---- masking and rendering ------------------------------------------

/// Replaces every run of digits (with its sign, decimal point and
/// exponent) by '#', so a JSON body keeps only its keys and structure.
std::string MaskNumbers(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size();) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (std::isdigit(c)) {
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) ||
              text[i] == '.' || text[i] == 'e' || text[i] == 'E' ||
              ((text[i] == '-' || text[i] == '+') &&
               (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        ++i;
      }
      if (!out.empty() && out.back() == '-') out.pop_back();
      out += '#';
    } else {
      out += text[i++];
    }
  }
  return out;
}

/// The METRICS exposition's shape: its metric families and the EOF line.
std::string MetricsShape(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  std::string out;
  std::string last;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) out += " [" + line.substr(7) + "]";
    last = line;
  }
  return out + " last=" + last;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const unsigned char c = static_cast<unsigned char>(ch);
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

const char* StatusText(std::uint8_t status) {
  switch (static_cast<net::WireStatus>(status)) {
    case net::WireStatus::kOk: return "OK";
    case net::WireStatus::kTimeout: return "TIMEOUT";
    case net::WireStatus::kOverloaded: return "OVERLOADED";
    case net::WireStatus::kNotFound: return "NOT_FOUND";
    case net::WireStatus::kShutdown: return "SHUTDOWN";
    case net::WireStatus::kBadRequest: return "BAD_REQUEST";
  }
  return "?";
}

std::string RenderText(const net::Response& response) {
  std::string body = response.bytes;
  if (body.rfind("OK metrics\n", 0) == 0) {
    body = "OK metrics" + MetricsShape(body.substr(11));
  } else if (body.rfind("OK {", 0) == 0 || body.rfind("OK [", 0) == 0) {
    body = MaskNumbers(body);
  }
  return body + (response.close ? " [close]" : "");
}

std::string RenderBinary(const net::Response& response) {
  net::FrameAssembler assembler;
  assembler.Append(response.bytes);
  net::Frame frame;
  if (assembler.Next(&frame) != net::FrameAssembler::FrameStatus::kFrame) {
    return "undecodable " + Hex(response.bytes);
  }
  std::string out = std::string(net::VerbName(frame.verb));
  if (out.empty()) out = "verb" + std::to_string(int(frame.verb));
  out += ' ';
  out += StatusText(frame.status);
  if (response.close) out += " [close]";
  net::PayloadReader reader(frame.payload);
  if (frame.status != 0) {
    std::string detail;
    if (reader.Str(&detail) && reader.AtEnd()) {
      return out + " detail=\"" + detail + "\"";
    }
    return out + " payload=" + Hex(frame.payload);
  }
  const auto verb = static_cast<BinaryVerb>(frame.verb);
  if (verb == BinaryVerb::kStats || verb == BinaryVerb::kTrace ||
      verb == BinaryVerb::kMetrics) {
    std::string blob;
    if (!reader.Blob(&blob) || !reader.AtEnd()) {
      return out + " payload=" + Hex(frame.payload);
    }
    return out + " blob=" +
           (verb == BinaryVerb::kMetrics ? MetricsShape(blob)
                                         : MaskNumbers(blob));
  }
  return out + " payload=" + Hex(frame.payload);
}

// ---- the script -----------------------------------------------------

/// One request in both encodings. An empty `text` (or an absent frame)
/// marks a request the codec cannot express; it renders as "-".
struct Step {
  std::string name;
  std::string text;
  bool has_frame = false;
  std::string frame;  // encoded request frame
  /// Send this step and the next without waiting for this one's reply.
  bool pipeline_next = false;
  /// Shut the server down before this step.
  bool shutdown_before = false;
};

std::string Frame(BinaryVerb verb, const std::string& payload = {}) {
  return net::EncodeFrame(verb, net::WireStatus::kOk, payload);
}

Step Both(std::string name, std::string text, std::string frame) {
  Step step;
  step.name = std::move(name);
  step.text = std::move(text);
  step.has_frame = true;
  step.frame = std::move(frame);
  return step;
}

Step TextOnly(std::string name, std::string text) {
  Step step;
  step.name = std::move(name);
  step.text = std::move(text);
  return step;
}

std::string ClassifyPayload(const std::string& model, std::uint32_t ms,
                            const std::vector<double>& values) {
  std::string payload;
  PayloadWriter w(&payload);
  w.Str(model);
  w.U32(ms);
  w.F64Array(values.data(), values.size());
  return payload;
}

std::string OpenPayload(const std::string& model, std::uint32_t window,
                        std::uint32_t hop, double early_fraction,
                        double early_margin) {
  std::string payload;
  PayloadWriter w(&payload);
  w.Str(model);
  w.U32(window);
  w.U32(hop);
  w.F64(early_fraction);
  w.F64(early_margin);
  return payload;
}

std::string FeedPayload(const std::string& id,
                        const std::vector<double>& values) {
  std::string payload;
  PayloadWriter w(&payload);
  w.Str(id);
  w.F64Array(values.data(), values.size());
  return payload;
}

std::string StrPayload(const std::string& a) {
  std::string payload;
  PayloadWriter w(&payload);
  w.Str(a);
  return payload;
}

std::string StrStrPayload(const std::string& a, const std::string& b) {
  std::string payload;
  PayloadWriter w(&payload);
  w.Str(a);
  w.Str(b);
  return payload;
}

std::string U32Payload(std::uint32_t v) {
  std::string payload;
  PayloadWriter w(&payload);
  w.U32(v);
  return payload;
}

std::vector<Step> Script(const std::string& model_path) {
  const std::vector<double> inst = Instance(0);
  const std::vector<double> inst2 = Instance(1);
  const std::string csv = Csv(inst);
  const std::vector<double> samples = StreamSamples(200);
  const std::vector<double> short_values = {1.0, 2.0, 3.0};
  std::vector<Step> s;

  // Catalogue and model lifecycle.
  s.push_back(Both("models-initial", "MODELS", Frame(BinaryVerb::kModels)));
  s.push_back(Both("load-ok", "LOAD aux " + model_path,
                   Frame(BinaryVerb::kLoad, StrStrPayload("aux", model_path))));
  s.push_back(Both("load-missing-file", "LOAD bad /no/such/model.rpm",
                   Frame(BinaryVerb::kLoad,
                         StrStrPayload("bad", "/no/such/model.rpm"))));
  s.push_back(Both("load-usage", "LOAD onlyname",
                   Frame(BinaryVerb::kLoad, StrPayload("onlyname"))));
  s.push_back(Both("models-two", "MODELS trailing garbage",
                   Frame(BinaryVerb::kModels)));
  s.push_back(Both("unload-ok", "UNLOAD aux",
                   Frame(BinaryVerb::kUnload, StrPayload("aux"))));
  s.push_back(Both("unload-missing", "UNLOAD aux",
                   Frame(BinaryVerb::kUnload, StrPayload("aux"))));
  s.push_back(Both("unload-usage", "UNLOAD", Frame(BinaryVerb::kUnload)));

  // CLASSIFY.
  s.push_back(Both("classify-ok", "CLASSIFY cbf " + csv,
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("cbf", 0, inst))));
  s.push_back(Both("classify-ok-timeout", "CLASSIFY cbf " + Csv(inst2) + " 5000",
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("cbf", 5000, inst2))));
  s.push_back(Both("classify-not-found", "CLASSIFY nope 1,2,3",
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("nope", 0, short_values))));
  s.push_back(Both("classify-malformed", "CLASSIFY cbf 1,x,3",
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("cbf", 0, {}))));
  s.push_back(Both("classify-usage", "CLASSIFY cbf",
                   Frame(BinaryVerb::kClassify, StrPayload("cbf"))));
  // Deliberate divergence: a zero timeout is an error in text and the
  // server default in binary.
  s.push_back(Both("classify-zero-timeout", "CLASSIFY cbf " + csv + " 0",
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("cbf", 0, inst))));
  s.push_back(TextOnly("classify-negative-timeout",
                       "CLASSIFY cbf " + csv + " -5"));
  s.push_back(TextOnly("classify-timeout-not-a-number",
                       "CLASSIFY cbf " + csv + " soon"));
  s.push_back(TextOnly("classify-timeout-beyond-u32",
                       "CLASSIFY cbf " + csv + " 4294967296"));
  // The deadline passes while the request lingers for co-travellers.
  s.push_back(Both("classify-timeout", "CLASSIFY cbf " + csv + " 1",
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("cbf", 1, inst))));
  // Queue depth 1: the first request lingers, the second is shed.
  Step lingering = Both("classify-lingering", "CLASSIFY cbf " + csv,
                        Frame(BinaryVerb::kClassify,
                              ClassifyPayload("cbf", 0, inst)));
  lingering.pipeline_next = true;
  s.push_back(lingering);
  s.push_back(Both("classify-overloaded", "CLASSIFY cbf " + csv,
                   Frame(BinaryVerb::kClassify,
                         ClassifyPayload("cbf", 0, inst))));

  // Observability verbs (bodies masked to shape).
  s.push_back(Both("stats", "STATS", Frame(BinaryVerb::kStats)));
  s.push_back(Both("metrics", "METRICS", Frame(BinaryVerb::kMetrics)));
  s.push_back(Both("trace-default", "TRACE", Frame(BinaryVerb::kTrace,
                                                   U32Payload(0))));
  s.push_back(Both("trace-n", "TRACE 5", Frame(BinaryVerb::kTrace,
                                               U32Payload(5))));
  s.push_back(Both("trace-clamped", "TRACE 5000",
                   Frame(BinaryVerb::kTrace, U32Payload(5000))));
  // Deliberate divergence: TRACE 0 is an error in text, the default in
  // binary.
  s.push_back(Both("trace-zero", "TRACE 0", Frame(BinaryVerb::kTrace,
                                                  U32Payload(0))));
  s.push_back(TextOnly("trace-negative", "TRACE -3"));
  s.push_back(Both("trace-usage", "TRACE", Frame(BinaryVerb::kTrace)));

  // Stream lifecycle.
  s.push_back(Both("streams-none", "STREAMS", Frame(BinaryVerb::kStreams)));
  s.push_back(Both("stream-open-ok", "STREAM_OPEN cbf 64",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("cbf", 64, 0, 0.0, 0.0))));
  s.push_back(Both("stream-open-early", "STREAM_OPEN cbf 64 16 0.5 0.1",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("cbf", 64, 16, 0.5, 0.1))));
  s.push_back(Both("stream-open-overloaded", "STREAM_OPEN cbf 64",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("cbf", 64, 0, 0.0, 0.0))));
  s.push_back(Both("stream-open-not-found", "STREAM_OPEN nope 64",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("nope", 64, 0, 0.0, 0.0))));
  s.push_back(Both("stream-open-invalid", "STREAM_OPEN cbf 64 16 1.5",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("cbf", 64, 16, 1.5, 0.0))));
  s.push_back(Both("stream-open-zero-window", "STREAM_OPEN cbf 0",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("cbf", 0, 0, 0.0, 0.0))));
  s.push_back(Both("stream-open-usage", "STREAM_OPEN cbf",
                   Frame(BinaryVerb::kStreamOpen, StrPayload("cbf"))));
  s.push_back(TextOnly("stream-open-negative-hop", "STREAM_OPEN cbf 64 -1"));
  s.push_back(TextOnly("stream-open-window-beyond-u32",
                       "STREAM_OPEN cbf 4294967296"));
  s.push_back(TextOnly("stream-open-hop-beyond-u32",
                       "STREAM_OPEN cbf 64 4294967296"));
  s.push_back(Both("streams-two", "STREAMS", Frame(BinaryVerb::kStreams)));
  s.push_back(Both("stream-feed-ok", "STREAM_FEED s1 " + Csv(samples),
                   Frame(BinaryVerb::kStreamFeed, FeedPayload("s1", samples))));
  s.push_back(Both("stream-feed-early", "STREAM_FEED s2 " + Csv(samples),
                   Frame(BinaryVerb::kStreamFeed, FeedPayload("s2", samples))));
  s.push_back(Both("stream-feed-malformed", "STREAM_FEED s1 1,x",
                   Frame(BinaryVerb::kStreamFeed, FeedPayload("s1", {}))));
  s.push_back(Both("stream-feed-not-found", "STREAM_FEED s404 1,2",
                   Frame(BinaryVerb::kStreamFeed,
                         FeedPayload("s404", {1.0, 2.0}))));
  s.push_back(Both("stream-feed-usage", "STREAM_FEED s1",
                   Frame(BinaryVerb::kStreamFeed, StrPayload("s1"))));
  s.push_back(Both("stream-close-ok", "STREAM_CLOSE s1",
                   Frame(BinaryVerb::kStreamClose, StrPayload("s1"))));
  s.push_back(Both("stream-close-not-found", "STREAM_CLOSE s1",
                   Frame(BinaryVerb::kStreamClose, StrPayload("s1"))));
  s.push_back(Both("stream-close-usage", "STREAM_CLOSE",
                   Frame(BinaryVerb::kStreamClose)));
  s.push_back(Both("streams-one", "STREAMS", Frame(BinaryVerb::kStreams)));

  // Requests the codecs cannot route.
  s.push_back(Both("unknown-verb", "BOGUS 1 2",
                   net::EncodeFrame(0x7F, 0, "")));
  s.push_back(TextOnly("empty-line", "   "));

  // After Shutdown: admission and stream verbs answer SHUTDOWN.
  Step after = Both("classify-shutdown", "CLASSIFY cbf " + csv,
                    Frame(BinaryVerb::kClassify,
                          ClassifyPayload("cbf", 0, inst)));
  after.shutdown_before = true;
  s.push_back(after);
  s.push_back(Both("stream-open-shutdown", "STREAM_OPEN cbf 64",
                   Frame(BinaryVerb::kStreamOpen,
                         OpenPayload("cbf", 64, 0, 0.0, 0.0))));
  s.push_back(Both("stream-feed-shutdown", "STREAM_FEED s2 1,2",
                   Frame(BinaryVerb::kStreamFeed,
                         FeedPayload("s2", {1.0, 2.0}))));
  s.push_back(Both("quit", "QUIT", Frame(BinaryVerb::kQuit)));
  return s;
}

// ---- the driver -----------------------------------------------------

/// Runs the script over one codec against a fresh server and returns
/// its transcript section.
std::string RunScript(bool binary, const std::vector<Step>& script) {
  serve::InferenceServer server(ScriptOptions());
  server.AddModel("cbf", TrainedCopy());
  serve::NetHandler handler(&server);

  auto send = [&](const Step& step) {
    auto promise = std::make_shared<std::promise<net::Response>>();
    std::future<net::Response> future = promise->get_future();
    auto respond = [promise](net::Response r) {
      promise->set_value(std::move(r));
    };
    if (binary) {
      net::FrameAssembler assembler;
      assembler.Append(step.frame);
      net::Frame frame;
      EXPECT_EQ(assembler.Next(&frame),
                net::FrameAssembler::FrameStatus::kFrame);
      handler.OnFrame(0, frame, respond);
    } else {
      handler.OnTextLine(0, step.text, respond);
    }
    return future;
  };
  auto render = [&](const std::string& name,
                    std::future<net::Response>& future) {
    if (future.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "no reply to " << name;
      return name + " -> <no reply>\n";
    }
    const net::Response response = future.get();
    return name + " -> " +
           (binary ? RenderBinary(response) : RenderText(response)) + "\n";
  };

  std::string out;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    if (step.shutdown_before) server.Shutdown();
    const bool expressible = binary ? step.has_frame : !step.text.empty();
    if (!expressible) {
      out += step.name + " -> -\n";
      continue;
    }
    std::future<net::Response> first = send(step);
    if (step.pipeline_next && i + 1 < script.size()) {
      const Step& next = script[++i];
      std::future<net::Response> second = send(next);
      out += render(step.name, first);
      out += render(next.name, second);
      continue;
    }
    out += render(step.name, first);
  }
  server.Shutdown();
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ProtocolTranscript, BothCodecsMatchTheGoldenTranscript) {
  const std::string model_path = testing::TempDir() + "transcript_model.rpm";
  Fixture().classifier.SaveToFile(model_path);
  const std::vector<Step> script = Script(model_path);

  const std::string actual = "== text ==\n" + RunScript(false, script) +
                             "== binary ==\n" + RunScript(true, script);
  const std::string golden = ReadFile(RPM_PROTOCOL_GOLDEN);
  if (actual != golden) {
    std::ofstream("protocol_transcript.actual", std::ios::binary) << actual;
  }
  ASSERT_FALSE(golden.empty()) << "missing " << RPM_PROTOCOL_GOLDEN;
  EXPECT_EQ(actual, golden)
      << "transcript differs from " << RPM_PROTOCOL_GOLDEN
      << "; the actual transcript is in protocol_transcript.actual";
}

}  // namespace
}  // namespace rpm
