#include "serve/net_handler.h"

#include <memory>
#include <utility>


namespace rpm::serve {

namespace {

// QUIT is connection-scoped: the server answers it, the connection
// closes after flushing the reply.
bool Closes(const net::Frame& reply) {
  return reply.verb == static_cast<std::uint8_t>(net::BinaryVerb::kQuit) &&
         reply.status == static_cast<std::uint8_t>(net::WireStatus::kOk);
}

}  // namespace

void NetHandler::OnTextLine(std::size_t shard, const std::string& line,
                            Respond respond) {
  // Shared with the reply callback: STREAM_CLOSE's reply line echoes the
  // requested id, and CLASSIFY replies after this call returns.
  auto request = std::make_shared<net::Frame>();
  std::string error;
  if (!TextToFrame(line, request.get(), &error)) {
    respond({std::move(error), false});
    return;
  }
  server_->Execute(shard, *request,
                   [request, respond = std::move(respond)](net::Frame reply) {
                     respond({FrameToText(*request, reply), Closes(reply)});
                   });
}

void NetHandler::OnFrame(std::size_t shard, const net::Frame& frame,
                         Respond respond) {
  server_->Execute(shard, frame,
                   [respond = std::move(respond)](net::Frame reply) {
                     respond({net::EncodeFrame(reply.verb, reply.status,
                                               reply.payload),
                              Closes(reply)});
                   });
}

}  // namespace rpm::serve
