// Descriptor hygiene (docs/ROBUSTNESS.md, "Resource budgets &
// exhaustion"): the serving stack must be fd-neutral — a full
// connect–query–drain cycle, repeated server lifecycles, and accept
// churn (including the injected EMFILE drill) must return
// /proc/self/fd to its starting population. A leaked descriptor per
// connection is how long-lived servers die of EMFILE in production.
#include <gtest/gtest.h>
#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "fault/failpoint.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::serve {
namespace {

using algo::testing::random_graph;

// Live count of open descriptors via /proc/self/fd; -1 if unreadable.
int fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++count;
  }
  ::closedir(dir);
  // The opendir itself holds one descriptor while counting.
  return count > 0 ? count - 1 : 0;
}

// The probe every test below rests on must see a descriptor open and
// close, or fd-neutrality would pass vacuously.
TEST(FdHygieneTest, OpenFdCountSeesNewDescriptors) {
  const int before = fd_count();
  ASSERT_GT(before, 0) << "/proc/self/fd should be readable on Linux";
  const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(fd_count(), before + 1);
  ::close(fd);
  EXPECT_EQ(fd_count(), before);
}

TEST(FdHygieneTest, ConnectQueryDrainIsFdNeutral) {
  const auto g = random_graph(256, 4.0, 100, 1);
  const int before = fd_count();
  ASSERT_GT(before, 0);
  {
    Server server(g, {});
    server.start();
    const int listen_fd = listen_tcp(0);
    const std::uint16_t port = bound_port(listen_fd);

    // Server side of one connection, the way sssp_server wires it.
    std::thread acceptor([&] {
      const int conn = accept_conn(listen_fd);
      ASSERT_GE(conn, 0);
      std::string payload;
      while (read_frame(conn, payload))
        server.submit(payload, [conn](const Response& r) {
          try {
            write_frame(conn, format_response(r));
          } catch (const ServeError&) {
          }
        });
      ::close(conn);
    });

    const int client = connect_tcp(port);
    ASSERT_GE(client, 0);
    for (int i = 0; i < 3; ++i) {
      write_frame(client, "{\"id\":\"q" + std::to_string(i) +
                              "\",\"source\":" + std::to_string(i) + "}");
      std::string doc;
      ASSERT_TRUE(read_frame(client, doc));
      Response response;
      ASSERT_TRUE(parse_response(doc, response));
      EXPECT_EQ(response.status, Status::kOk);
    }
    ::shutdown(client, SHUT_WR);
    ::close(client);
    acceptor.join();
    ::close(listen_fd);
    server.drain();
  }
  EXPECT_EQ(fd_count(), before)
      << "connect-query-drain leaked file descriptors";
}

TEST(FdHygieneTest, RepeatedServerLifecyclesAreFdNeutral) {
  const auto g = random_graph(128, 4.0, 50, 2);
  const int before = fd_count();
  for (int cycle = 0; cycle < 3; ++cycle) {
    Server server(g, {});
    server.start();
    bool done = false;
    std::mutex mu;
    std::condition_variable cv;
    server.submit("{\"id\":\"x\",\"source\":0}", [&](const Response&) {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20),
                            [&] { return done; }));
    lock.unlock();
    server.drain();
  }
  EXPECT_EQ(fd_count(), before) << "server lifecycle leaked descriptors";
}

TEST(FdHygieneTest, AcceptChurnWithEmfileDrillIsFdNeutral) {
  const int before = fd_count();
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);

  // Churn: half the accepts are refused by the injected EMFILE drill
  // (every 2nd); both the refused and the served path must close
  // everything they opened.
  fault::FailpointRegistry::global().arm("serve.accept.emfile=2");
  std::thread acceptor([&] {
    for (int served = 0; served < 8;) {
      const int conn = accept_conn(listen_fd);
      if (conn < 0) continue;  // the drill refused this accept
      ::close(conn);
      ++served;
    }
  });
  for (int i = 0; i < 16; ++i) {
    const int client = connect_tcp(port);
    ASSERT_GE(client, 0);
    ::close(client);
  }
  acceptor.join();
  fault::FailpointRegistry::global().disarm_all();
  ::close(listen_fd);
  EXPECT_EQ(fd_count(), before) << "accept churn leaked descriptors";
}

}  // namespace
}  // namespace sssp::serve
