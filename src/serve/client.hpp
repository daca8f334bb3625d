#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/frame.hpp"

namespace serve {

/// Minimal blocking client for the genet_serve protocol, shared by the load
/// generator, the protocol tests, and ad-hoc tooling. One Client is one
/// connection; it is not thread-safe (the load bench runs one per thread).
///
/// Two usage styles:
///  - request/response: hello() / act() / close_session() block for the
///    matching reply;
///  - pipelined: queue frames with encode_* into one buffer, push it with
///    send_raw(), then pull replies with read_frame() -- one connection's
///    replies arrive in request order, each carrying its session id.
class Client {
 public:
  /// Connect to 127.0.0.1:port; throws std::runtime_error on failure.
  static Client connect_tcp(int port);

  /// Connect to a Unix socket path; throws std::runtime_error on failure.
  static Client connect_unix(const std::string& path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  HelloResponse hello();

  /// One blocking action request. Throws ProtocolError if the server answers
  /// with an error frame (the message is included).
  ActResponse act(std::uint64_t session_id, const double* obs, std::size_t n);

  /// End a session; answered after every earlier request of that session.
  void close_session(std::uint64_t session_id);

  /// Write raw pre-encoded frames (loops over short sends, MSG_NOSIGNAL).
  /// Throws std::runtime_error when the server hung up.
  void send_raw(std::string_view bytes);

  /// Next complete frame body from the server; blocks. Throws
  /// std::runtime_error on EOF and ProtocolError on a malformed stream.
  std::string read_frame();

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace serve
