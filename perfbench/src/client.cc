#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common.h"

namespace perfbench {

std::unique_ptr<Connection> Connection::Open(int port, bool binary) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::unique_ptr<Connection> conn(new Connection(fd, binary));
  if (binary && !conn->Send(std::string_view(rpm::net::kBinaryMagic,
                                             sizeof(rpm::net::kBinaryMagic)))) {
    return nullptr;
  }
  return conn;
}

Connection::~Connection() { ::close(fd_); }

bool Connection::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(std::size_t(n));
  }
  return true;
}

bool Connection::Pump() {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      if (binary_) {
        frames_.Append(std::string_view(buf, std::size_t(n)));
      } else {
        lines_.Append(std::string_view(buf, std::size_t(n)));
      }
      if (std::size_t(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool Connection::NextFrame(rpm::net::Frame* frame) {
  return frames_.Next(frame) == rpm::net::FrameAssembler::FrameStatus::kFrame;
}

bool Connection::NextLine(std::string* line) {
  return lines_.NextLine(line) == rpm::net::LineAssembler::LineStatus::kLine;
}

bool Connection::WaitReadable(int timeout_ms) {
  pollfd p{fd_, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) > 0;
}

bool Connection::ReadFrame(rpm::net::Frame* frame, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!NextFrame(frame)) {
    if (Clock::now() >= deadline || !WaitReadable(timeout_ms) || !Pump()) {
      return false;
    }
  }
  return true;
}

bool Connection::ReadLine(std::string* line, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!NextLine(line)) {
    if (Clock::now() >= deadline || !WaitReadable(timeout_ms) || !Pump()) {
      return false;
    }
  }
  return true;
}

bool PollAndPump(const std::vector<Connection*>& conns, int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(conns.size());
  for (const Connection* c : conns) fds.push_back(pollfd{c->fd(), POLLIN, 0});
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) return errno == EINTR;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !conns[i]->Pump()) {
      return false;
    }
  }
  return true;
}

double ScrapeValue(const std::string& exposition, const std::string& name) {
  std::istringstream in(exposition);
  std::string line;
  double total = 0.0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    total += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return total;
}

}  // namespace perfbench
