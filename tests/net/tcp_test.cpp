#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <thread>
#include <vector>

#include "util/serial.hpp"

namespace globe::net {
namespace {

using util::Bytes;
using util::BytesView;
using util::ErrorCode;
using util::Result;

Bytes pattern(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 131 + (i >> 16));
  return out;
}

bool read_n(int fd, std::uint8_t* buf, std::size_t n) {
  for (std::size_t got = 0; got < n;) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// Reads one u32-length-prefixed frame and returns its payload.
Bytes read_frame(int fd) {
  std::uint8_t len[4];
  if (!read_n(fd, len, 4)) return {};
  Bytes out(std::size_t{len[0]} << 24 | std::size_t{len[1]} << 16 |
            std::size_t{len[2]} << 8 | len[3]);
  if (!read_n(fd, out.data(), out.size())) return {};
  return out;
}

void write_bytes(int fd, const Bytes& b) {
  for (std::size_t sent = 0; sent < b.size();) {
    ssize_t r = ::send(fd, b.data() + sent, b.size() - sent, MSG_NOSIGNAL);
    if (r <= 0) return;
    sent += static_cast<std::size_t>(r);
  }
}

/// The bytes of a frame whose payload is `body`.
Bytes frame(BytesView body) {
  std::size_t n = body.size();
  Bytes out(4 + n);
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(n >> (24 - 8 * i));
  std::copy(body.begin(), body.end(), out.begin() + 4);
  return out;
}

/// Blocks until the client closes its end.
void wait_for_close(int fd) {
  std::uint8_t sink[256];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
}

/// A hand-written TCP peer on a loopback port.  It accepts one connection
/// per script and runs the scripts in order on its own thread, so a test can
/// answer with frames TcpServer never sends.
class RawPeer {
 public:
  explicit RawPeer(std::vector<std::function<void(int)>> scripts) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    thread_ = std::thread([this, scripts = std::move(scripts)] {
      for (const auto& script : scripts) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        script(fd);
        ::close(fd);
      }
    });
  }
  ~RawPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept if a script never ran
    thread_.join();
    ::close(listen_fd_);
  }

  Endpoint endpoint() const { return Endpoint{HostId{0}, port_}; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(TcpTest, EchoRoundTrip) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("hello tcp"));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(util::to_string(*r), "hello tcp");
}

TEST(TcpTest, ErrorStatusPropagates) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    return Result<Bytes>(ErrorCode::kPermissionDenied, "keystore rejects you");
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(r.status().message(), "keystore rejects you");
}

TEST(TcpTest, HandlerExceptionBecomesInternal) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    throw std::runtime_error("kaboom");
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kInternal);
}

TEST(TcpTest, LargePayloadRoundTrip) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  TcpTransport client;
  // The odd size is past what loopback socket buffers absorb (~4 MB).
  for (std::size_t size : {std::size_t{2} << 20, (std::size_t{8} << 20) + 4099}) {
    Bytes big = pattern(size);
    auto r = client.call(Endpoint{HostId{0}, server.port()}, big);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(*r == big);
  }
}

TEST(TcpTest, MultipleSequentialRequestsReuseConnection) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    Bytes out(req.begin(), req.end());
    out.push_back('!');
    return out;
  });
  TcpTransport client;
  Endpoint ep{HostId{0}, server.port()};
  for (int i = 0; i < 20; ++i) {
    auto r = client.call(ep, util::to_bytes("msg" + std::to_string(i)));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(util::to_string(*r), "msg" + std::to_string(i) + "!");
  }
}

TEST(TcpTest, ConcurrentClients) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  std::uint16_t port = server.port();
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([port, t, &ok] {
      TcpTransport client;
      for (int i = 0; i < 10; ++i) {
        Bytes msg = util::to_bytes("t" + std::to_string(t) + "i" + std::to_string(i));
        auto r = client.call(Endpoint{HostId{0}, port}, msg);
        if (r.is_ok() && *r == msg) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 80);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
      return Bytes{};
    });
    dead_port = server.port();
  }  // server destroyed
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, dead_port}, util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kUnavailable);
}

TEST(TcpTest, EmptyRequestAndResponse) {
  TcpServer server(0, [](ServerContext&, BytesView req) -> Result<Bytes> {
    EXPECT_EQ(req.size(), 0u);
    return Bytes{};
  });
  TcpTransport client;
  auto r = client.call(Endpoint{HostId{0}, server.port()}, Bytes{});
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->empty());
}

// A blocking sendmsg returns short only when a signal interrupts it after
// some bytes went out.  The peer holds back until the client's frame fills
// the socket buffers, the client thread is then signalled, and the frame
// must still arrive byte for byte: the send resumes mid-payload.
TEST(TcpTest, InterruptedSendResumesMidPayload) {
  struct sigaction quiet {};
  struct sigaction saved {};
  quiet.sa_handler = [](int) {};
  sigemptyset(&quiet.sa_mask);  // no SA_RESTART: the send returns short
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &saved), 0);

  Bytes big = pattern(8 * 1024 * 1024 + 7);
  std::atomic<pthread_t> sender{};
  std::atomic<bool> started{false};
  Bytes received;
  {
    RawPeer peer({[&](int fd) {
      // Wait until bytes are queued and stop growing: the client is then
      // blocked inside its send, with part of the frame already out.
      int queued = 0;
      for (int stable = 0, polls = 0; stable < 5; ++polls) {
        ASSERT_LT(polls, 500) << "the client never blocked in its send";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        int now = 0;
        ::ioctl(fd, FIONREAD, &now);
        stable = (now > 0 && now == queued) ? stable + 1 : 0;
        queued = now;
      }
      ASSERT_TRUE(started.load());
      pthread_kill(sender.load(), SIGUSR1);
      received = read_frame(fd);
      write_bytes(fd, frame(Bytes{1, 'o', 'k'}));
      wait_for_close(fd);
    }});
    std::thread client_thread([&] {
      sender.store(pthread_self());
      started.store(true);
      TcpTransport client;
      auto r = client.call(peer.endpoint(), big);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      EXPECT_EQ(util::to_string(*r), "ok");
    });
    client_thread.join();
  }
  ::sigaction(SIGUSR1, &saved, nullptr);
  EXPECT_TRUE(received == big);
}

TEST(TcpTest, EmptyReplyFrameIsProtocolError) {
  RawPeer peer({[](int fd) {
    read_frame(fd);
    write_bytes(fd, Bytes{0, 0, 0, 0});
    wait_for_close(fd);  // the socket stays open: no fifth byte ever comes
  }});
  TcpTransport client;
  auto r = client.call(peer.endpoint(), util::to_bytes("x"));
  EXPECT_EQ(r.code(), ErrorCode::kProtocol);
}

TEST(TcpTest, PeerClosingMidFrameIsUnavailableAndNextCallReconnects) {
  RawPeer peer({[](int fd) {
                  read_frame(fd);
                  write_bytes(fd, Bytes{0, 0, 0, 10, 1});  // head of a 10-byte reply
                },
                [](int fd) {
                  read_frame(fd);
                  write_bytes(fd, frame(Bytes{1, 'a', 'g', 'a', 'i', 'n'}));
                  wait_for_close(fd);
                }});
  TcpTransport client;
  auto first = client.call(peer.endpoint(), util::to_bytes("x"));
  EXPECT_EQ(first.code(), ErrorCode::kUnavailable);
  auto second = client.call(peer.endpoint(), util::to_bytes("y"));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(util::to_string(*second), "again");
}

// Any flag other than 1 decodes as an error reply: an ErrorCode byte and a
// message follow, and a reply too short for them is a protocol error.
TEST(TcpTest, UnknownReplyFlagDecodesAsError) {
  RawPeer peer({[](int fd) {
    util::Writer w;
    w.u8(7);
    w.u8(static_cast<std::uint8_t>(ErrorCode::kPermissionDenied));
    w.str("odd flag");
    read_frame(fd);
    write_bytes(fd, frame(w.buffer()));
    read_frame(fd);
    write_bytes(fd, frame(Bytes{7}));
    wait_for_close(fd);
  }});
  TcpTransport client;
  auto with_body = client.call(peer.endpoint(), util::to_bytes("x"));
  EXPECT_EQ(with_body.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(with_body.status().message(), "odd flag");
  auto bare = client.call(peer.endpoint(), util::to_bytes("y"));
  EXPECT_EQ(bare.code(), ErrorCode::kProtocol);
}

TEST(TcpTest, StopIsIdempotent) {
  TcpServer server(0, [](ServerContext&, BytesView) -> Result<Bytes> {
    return Bytes{};
  });
  server.stop();
  server.stop();
}

}  // namespace
}  // namespace globe::net
