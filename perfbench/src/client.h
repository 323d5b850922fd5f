// Loopback client connections for the serving workloads. One client
// thread drives every connection: requests are written with blocking
// sends (each fits in the socket buffer) and replies are collected by
// polling all connections at once.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"

namespace perfbench {

class Connection {
 public:
  /// Connects to 127.0.0.1:`port` with TCP_NODELAY; binary connections
  /// send the RPMB preamble. Returns nullptr on failure.
  static std::unique_ptr<Connection> Open(int port, bool binary);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool binary() const { return binary_; }

  /// Writes all of `bytes`; false on a socket error.
  bool Send(std::string_view bytes);

  /// Reads whatever is available without blocking and feeds the codec's
  /// assembler; false on EOF or a socket error.
  bool Pump();

  /// Next complete reply, if one is buffered.
  bool NextFrame(rpm::net::Frame* frame);
  bool NextLine(std::string* line);

  /// Blocking reads of the next reply, for set-up and scrape calls;
  /// false on timeout or a socket error.
  bool ReadFrame(rpm::net::Frame* frame, int timeout_ms = 10000);
  bool ReadLine(std::string* line, int timeout_ms = 10000);

 private:
  Connection(int fd, bool binary) : fd_(fd), binary_(binary) {}
  bool WaitReadable(int timeout_ms);

  int fd_;
  bool binary_;
  rpm::net::FrameAssembler frames_;
  rpm::net::LineAssembler lines_;
};

/// Waits until at least one of `conns` has bytes to read (or
/// `timeout_ms` passes) and pumps every readable one. Returns false when
/// a connection failed.
bool PollAndPump(const std::vector<Connection*>& conns, int timeout_ms);

/// Value of the metric line `name` (no labels, or summed over label
/// sets) in a Prometheus text exposition; 0 when absent.
double ScrapeValue(const std::string& exposition, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
