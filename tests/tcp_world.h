// Test harness: a world of rank threads wired into one TCP transport world,
// the transport every world ships with. Ranks are threads here (sockets do not
// care), which keeps the tests fast; tests/distributed_process_test.cc covers
// ranks as OS processes.
#ifndef EGERIA_TESTS_TCP_WORLD_H_
#define EGERIA_TESTS_TCP_WORLD_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/distributed/transport/fault_injection.h"
#include "src/distributed/transport/tcp_transport.h"

namespace egeria {

// Runs `body(rank, transport)` on `world` rank threads wired through a fresh
// rendezvous file. Rank r's transport fires the fault drills of (*plans)[r]
// when `plans` is given. Every collective gives up after 30 s, so a broken
// test fails instead of hanging.
inline void RunTcpWorld(int world, const std::function<void(int, Transport&)>& body,
                        std::vector<FaultPlan>* plans = nullptr) {
  char dir[] = "/tmp/egeria-tcp-world-XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(dir));
  const std::string rendezvous = std::string(dir) + "/rendezvous";
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      TcpTransportOptions opts;
      opts.rank = r;
      opts.world = world;
      opts.rendezvous_file = rendezvous;
      opts.io_timeout_s = 30.0;
      opts.faults = plans != nullptr ? &(*plans)[static_cast<size_t>(r)] : nullptr;
      std::unique_ptr<Transport> transport = MakeTcpTransport(opts);
      body(r, *transport);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  unlink(rendezvous.c_str());
  rmdir(dir);
}

}  // namespace egeria

#endif  // EGERIA_TESTS_TCP_WORLD_H_
