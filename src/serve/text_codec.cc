// The text codec: request lines to request frames and reply frames back
// to reply lines (declared in serve/server.h, which explains the split).

#include "serve/server.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

namespace rpm::serve {

namespace {

using net::BinaryVerb;
using net::PayloadReader;
using net::PayloadWriter;

constexpr long kU32Max = 0xFFFFFFFFL;

// The C locale's isspace set, which istream extraction splits on too.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Pops the next whitespace-delimited token off `*rest` (empty at end).
std::string_view NextToken(std::string_view* rest) {
  std::size_t begin = 0;
  while (begin < rest->size() && IsSpace((*rest)[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest->size() && !IsSpace((*rest)[end])) ++end;
  const std::string_view token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return token;
}

// Appends "1.5,2,-0.25" as an f64 array: strtod per comma-separated
// field, empty fields skipped, every field consumed whole. Decodes in
// place — a field ends at ',', whitespace or the line's terminating
// NUL, none of which strtod consumes. False if a field is not a number
// or there is none.
bool PutValues(std::string_view csv, std::string* payload) {
  const auto fields = std::count(csv.begin(), csv.end(), ',') + 1;
  payload->reserve(payload->size() + 4 + 8 * std::size_t(fields));
  PayloadWriter writer(payload);
  const std::size_t count_at = payload->size();
  writer.U32(0);  // patched once the count is known
  std::uint32_t count = 0;
  for (std::size_t pos = 0; pos <= csv.size();) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    if (comma > pos) {
      char* end = nullptr;
      const double v = std::strtod(csv.data() + pos, &end);
      if (end != csv.data() + comma) return false;
      writer.F64(v);
      ++count;
    }
    pos = comma + 1;
  }
  for (std::size_t b = 0; b < 4; ++b) {
    (*payload)[count_at + b] = static_cast<char>(count >> (8 * b));
  }
  return count > 0;
}

}  // namespace

bool TextToFrame(const std::string& line, net::Frame* request,
                 std::string* error) {
  auto fail = [error](std::string_view detail) {
    *error = "ERR BAD_REQUEST ";
    *error += detail;
    return false;
  };
  std::string_view rest(line);
  const std::string_view cmd = NextToken(&rest);
  if (cmd.empty()) return fail("empty line");
  const std::optional<BinaryVerb> verb = net::VerbByName(cmd);
  if (!verb) return fail("unknown command '" + std::string(cmd) + "'");

  *request = net::Frame{static_cast<std::uint8_t>(*verb), 0, {}};
  PayloadWriter writer(&request->payload);
  // Payload strings carry a u16 length; longer arguments are rejected
  // rather than truncated.
  bool too_long = false;
  auto put_str = [&](std::string_view s) {
    too_long |= s.size() > 0xFFFF;
    writer.Str(s);
  };
  switch (*verb) {
    case BinaryVerb::kModels:
    case BinaryVerb::kStats:
    case BinaryVerb::kMetrics:
    case BinaryVerb::kStreams:
    case BinaryVerb::kQuit:
      break;  // trailing tokens are ignored
    case BinaryVerb::kLoad: {
      const std::string_view name = NextToken(&rest);
      const std::string_view path = NextToken(&rest);
      if (path.empty()) return fail("usage: LOAD <name> <path>");
      put_str(name);
      put_str(path);
      break;
    }
    case BinaryVerb::kUnload:
    case BinaryVerb::kStreamClose: {
      const std::string_view name = NextToken(&rest);
      if (name.empty()) {
        return fail(*verb == BinaryVerb::kUnload ? "usage: UNLOAD <name>"
                                                 : "usage: STREAM_CLOSE <id>");
      }
      put_str(name);
      break;
    }
    case BinaryVerb::kTrace: {
      // Absent: 0, the server default. Present but not a number: the
      // most the server returns.
      long n = 0;
      std::string_view probe = rest;
      if (!NextToken(&probe).empty()) {
        std::istringstream in{std::string(rest)};
        if (in >> n && n <= 0) return fail("span count must be positive");
        if (!in) n = kU32Max;
      }
      writer.U32(static_cast<std::uint32_t>(std::min(n, kU32Max)));
      break;
    }
    case BinaryVerb::kClassify: {
      const std::string_view name = NextToken(&rest);
      const std::string_view csv = NextToken(&rest);
      if (csv.empty()) {
        return fail("usage: CLASSIFY <name> <v1,v2,...> [ms]");
      }
      long timeout_ms = 0;  // 0: the server default
      std::istringstream in{std::string(rest)};
      if (!(in >> timeout_ms)) {
        timeout_ms = 0;
      } else if (timeout_ms <= 0) {
        return fail("timeout must be positive");
      } else if (timeout_ms > kU32Max) {
        return fail("timeout too large");
      }
      put_str(name);
      writer.U32(static_cast<std::uint32_t>(timeout_ms));
      if (!PutValues(csv, &request->payload)) {
        return fail("malformed values '" + std::string(csv) + "'");
      }
      break;
    }
    case BinaryVerb::kStreamOpen: {
      const std::string_view model = NextToken(&rest);
      // Optional numbers keep istream semantics: a read that fails
      // leaves it and every later one absent.
      std::istringstream in{std::string(rest)};
      long window = 0;
      long hop = 0;
      double early_fraction = 0.0;
      double early_margin = 0.0;
      if (model.empty() || !(in >> window) || window <= 0) {
        return fail(
            "usage: STREAM_OPEN <model> <window> [hop] [early_frac] "
            "[early_margin]");
      }
      if (!(in >> hop)) {
        hop = 0;
      } else if (hop < 0) {
        return fail("hop must be non-negative");
      }
      if (!(in >> early_fraction)) early_fraction = 0.0;
      if (!(in >> early_margin)) early_margin = 0.0;
      if (window > kU32Max) return fail("window too large");
      if (hop > kU32Max) return fail("hop too large");
      put_str(model);
      writer.U32(static_cast<std::uint32_t>(window));
      writer.U32(static_cast<std::uint32_t>(hop));
      writer.F64(early_fraction);
      writer.F64(early_margin);
      break;
    }
    case BinaryVerb::kStreamFeed: {
      const std::string_view id = NextToken(&rest);
      const std::string_view csv = NextToken(&rest);
      if (csv.empty()) return fail("usage: STREAM_FEED <id> <v1,v2,...>");
      put_str(id);
      if (!PutValues(csv, &request->payload)) {
        return fail("malformed values '" + std::string(csv) + "'");
      }
      break;
    }
  }
  if (too_long) return fail("argument too long");
  return true;
}

std::string FrameToText(const net::Frame& request, const net::Frame& reply) {
  // Execute wrote the payload, so every read below succeeds.
  PayloadReader in(reply.payload);
  std::string s;
  std::uint32_t n = 0;
  std::uint64_t u64 = 0;
  if (reply.status != 0) {
    in.Str(&s);
    std::string out = "ERR ";
    out += net::StatusName(static_cast<net::WireStatus>(reply.status));
    return s.empty() ? out : out + ' ' + s;
  }
  switch (static_cast<BinaryVerb>(reply.verb)) {
    case BinaryVerb::kLoad:
      in.Str(&s);
      in.U64(&u64);
      return "OK loaded " + s + " patterns=" + std::to_string(u64);
    case BinaryVerb::kUnload:
      in.Str(&s);
      return "OK unloaded " + s;
    case BinaryVerb::kModels:
    case BinaryVerb::kStreams: {
      in.U32(&n);
      std::string out = "OK " + std::to_string(n);
      for (std::uint32_t i = 0; i < n && in.Str(&s); ++i) out += ' ' + s;
      return out;
    }
    case BinaryVerb::kClassify: {
      std::int32_t label = 0;
      in.I32(&label);
      return "OK " + std::to_string(label);
    }
    case BinaryVerb::kStats:
    case BinaryVerb::kTrace:
      in.Blob(&s);
      return "OK " + s;
    case BinaryVerb::kMetrics: {
      // Reply lines carry no trailing newline (the connection appends
      // one), so drop the exposition's last '\n'.
      in.Blob(&s);
      std::string out = "OK metrics\n" + s;
      if (out.back() == '\n') out.pop_back();
      return out;
    }
    case BinaryVerb::kStreamOpen: {
      std::uint32_t hop = 0;
      in.Str(&s);
      in.U32(&n);
      in.U32(&hop);
      return "OK stream " + s + " window=" + std::to_string(n) +
             " hop=" + std::to_string(hop);
    }
    case BinaryVerb::kStreamFeed: {
      std::uint32_t accepted = 0;
      in.U32(&accepted);
      in.U32(&n);
      std::string out = "OK fed " + std::to_string(accepted) +
                        " decisions=" + std::to_string(n);
      char item[96];
      for (std::uint32_t i = 0; i < n; ++i) {
        std::int32_t label = 0;
        double margin = 0.0;
        std::uint8_t early = 0;
        if (!in.U64(&u64) || !in.I32(&label) || !in.F64(&margin) ||
            !in.U8(&early)) {
          break;
        }
        std::snprintf(item, sizeof(item), " %llu:%d:%.3f",
                      static_cast<unsigned long long>(u64), label, margin);
        out += item;
        if (early != 0) out += ":early";
      }
      return out;
    }
    case BinaryVerb::kStreamClose: {
      PayloadReader(request.payload).Str(&s);  // the id, as requested
      std::string out = "OK closed " + s;
      for (const char* key :
           {" samples=", " windows=", " decisions=", " early="}) {
        in.U64(&u64);
        out += key;
        out += std::to_string(u64);
      }
      return out;
    }
    case BinaryVerb::kQuit:
      return "OK bye";
  }
  return "OK";
}

}  // namespace rpm::serve
