// Failure-path coverage for the self-healing transport stack: frame digests
// (one-shot and streamed), deterministic fault injection (plan parsing, seed
// expansion, and each transport-level kind firing inside the TCP transport's
// framed pump, the wire path every world ships with), the framed pump's typed
// error taxonomy (checksum / sequence), and the collective error paths — a
// peer that corrupts, truncates, replays, or drops must surface as a typed
// TransportStatus on the affected ranks, never as a hang or a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "src/distributed/transport/fault_injection.h"
#include "src/distributed/transport/frame_digest.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/util/rng.h"
#include "tests/tcp_world.h"

namespace egeria {
namespace {

// ---- FrameDigest64 ----

TEST(FrameDigest, DeterministicAndSensitive) {
  std::vector<uint8_t> buf(1000);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t d = FrameDigest64(buf.data(), buf.size());
  EXPECT_EQ(d, FrameDigest64(buf.data(), buf.size()));
  // Every single-bit flip, anywhere (block lanes and tail), changes the digest.
  for (size_t off : {size_t{0}, size_t{7}, size_t{63}, size_t{64}, size_t{640},
                     buf.size() - 1}) {
    buf[off] ^= 0x01;
    EXPECT_NE(d, FrameDigest64(buf.data(), buf.size())) << "offset " << off;
    buf[off] ^= 0x01;
  }
  // Length is part of the digest: a truncated frame never matches.
  EXPECT_NE(d, FrameDigest64(buf.data(), buf.size() - 1));
  EXPECT_NE(FrameDigest64(buf.data(), 0), FrameDigest64(buf.data(), 1));
}

// The ring receiver hashes whatever chunks recv() delivers, so the stream
// must give the one-shot digest of the whole buffer for any split of it.
TEST(FrameDigest, StreamMatchesOneShotForAnyChunking) {
  std::vector<uint8_t> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  Rng rng(11);
  for (size_t len = 0; len <= buf.size(); len += len < 256 ? 1 : 61) {
    const uint64_t whole = FrameDigest64(buf.data(), len);
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{63}, size_t{64}, size_t{65}}) {
      FrameDigestStream stream;
      for (size_t off = 0; off < len; off += chunk) {
        stream.Update(buf.data() + off, std::min(chunk, len - off));
      }
      EXPECT_EQ(stream.Finish(), whole) << "len " << len << ", chunks of " << chunk;
    }
    for (int split = 0; split < 4; ++split) {
      FrameDigestStream stream;
      for (size_t off = 0; off < len;) {
        // Empty updates included: a recv() can hand over header bytes only.
        const size_t n = std::min<size_t>(len - off, rng.NextBelow(200));
        stream.Update(buf.data() + off, n);
        off += n;
      }
      EXPECT_EQ(stream.Finish(), whole) << "len " << len << ", random split " << split;
    }
  }
}

// ---- FaultPlan parsing (the strict --fault contract) ----

TEST(FaultPlan, ParsesExplicitEntries) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("corrupt:6,delay:9,hang:0", 3, 1, &plan, &error))
      << error;
  ASSERT_EQ(plan.events.size(), 3U);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.events[0].iter, 6);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kHang);
  EXPECT_EQ(plan.events[2].iter, 0);
  EXPECT_TRUE(FaultPlan::Parse("", 3, 1, &plan, &error));
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, RejectsUnknownKindsAndMalformedIterations) {
  FaultPlan plan;
  std::string error;
  // Unknown kind: a typo'd chaos spec must be a hard error, not a clean run.
  EXPECT_FALSE(FaultPlan::Parse("corupt:6", 3, 1, &plan, &error));
  EXPECT_NE(error.find("unknown fault kind"), std::string::npos) << error;
  EXPECT_NE(error.find("valid forms"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("corrupt:six", 3, 1, &plan, &error));
  EXPECT_NE(error.find("malformed fault iteration"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("corrupt", 3, 1, &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("corrupt:", 3, 1, &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse(":6", 3, 1, &plan, &error));
  // Only process-level faults may fire "before wiring".
  EXPECT_FALSE(FaultPlan::Parse("corrupt:0", 3, 1, &plan, &error));
  EXPECT_NE(error.find("positive iteration"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("drop:-2", 3, 1, &plan, &error));
  // Out-of-range numbers are malformed, never a wrapped value.
  EXPECT_FALSE(FaultPlan::Parse("delay:99999999999999999999", 3, 1, &plan, &error));
  EXPECT_NE(error.find("malformed fault iteration"), std::string::npos) << error;
  // seed must stand alone and be a non-negative integer.
  EXPECT_FALSE(FaultPlan::Parse("seed:7,corrupt:3", 3, 1, &plan, &error));
  EXPECT_NE(error.find("cannot be combined"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("seed:x", 3, 1, &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("seed:-1", 3, 1, &plan, &error));
}

TEST(FaultPlan, SeedExpansionIsDeterministicAndTargetsOneRank) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    for (int world : {2, 3, 4}) {
      int targeted = 0;
      for (int rank = 0; rank < world; ++rank) {
        const FaultPlan a = FaultPlan::FromSeed(seed, world, rank);
        const FaultPlan b = FaultPlan::FromSeed(seed, world, rank);
        ASSERT_EQ(a.events.size(), b.events.size());
        if (!a.events.empty()) {
          ++targeted;
          ASSERT_EQ(a.events.size(), 1U);
          EXPECT_EQ(a.events[0].kind, b.events[0].kind);
          EXPECT_EQ(a.events[0].iter, b.events[0].iter);
          EXPECT_GE(a.events[0].iter, 2);
          EXPECT_LE(a.events[0].iter, 11);
        }
      }
      // One seed = one fault on exactly one rank of the world.
      EXPECT_EQ(targeted, 1) << "seed " << seed << " world " << world;
    }
  }
  // The seed space reaches every kind (the chaos matrix depends on this).
  std::set<std::string> kinds;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    for (int rank = 0; rank < 3; ++rank) {
      const FaultPlan p = FaultPlan::FromSeed(seed, 3, rank);
      for (const FaultEvent& ev : p.events) {
        kinds.insert(FaultKindName(ev.kind));
      }
    }
  }
  for (const char* kind : {"corrupt", "truncate", "delay", "drop", "hang", "exit"}) {
    EXPECT_TRUE(kinds.count(kind)) << kind << " never derived from seeds 1..64";
  }
}

// ---- Collective error paths over a TCP world (tests/tcp_world.h) ----

// Ring-neighbor of the faulty rank: the receiver that must detect the fault.
int NextRank(int rank, int world) { return (rank + 1) % world; }

// Runs `iters` world-synchronous ring exchanges on every rank of a TCP world,
// with rank `faulty`'s transport firing `plan` (armed at the top of each
// iteration, like the worker's iteration hook). Records each rank's FIRST
// non-ok status.
std::vector<TransportStatus> RingRounds(int world, int faulty,
                                        const FaultPlan& plan, int64_t iters) {
  std::vector<TransportStatus> first_error(static_cast<size_t>(world));
  std::vector<FaultPlan> plans(static_cast<size_t>(world));
  plans[static_cast<size_t>(faulty)] = plan;
  RunTcpWorld(world, [&](int rank, Transport& transport) {
    std::vector<uint8_t> send(96);
    std::vector<uint8_t> recv(96);
    for (int64_t iter = 1; iter <= iters; ++iter) {
      plans[static_cast<size_t>(rank)].BeginIteration(iter);
      for (size_t i = 0; i < send.size(); ++i) {
        send[i] = static_cast<uint8_t>(rank * 31 + iter * 7 + i);
      }
      const TransportStatus st =
          transport.RingExchange(send.data(), static_cast<int64_t>(send.size()),
                                 recv.data(), static_cast<int64_t>(recv.size()));
      if (!st.ok()) {
        first_error[static_cast<size_t>(rank)] = st;
        return;  // an errored rank leaves; peers must still unwind with errors
      }
      // A clean exchange must deliver the previous rank's exact payload.
      const int prev = (rank + world - 1) % world;
      for (size_t i = 0; i < recv.size(); ++i) {
        ASSERT_EQ(recv[i], static_cast<uint8_t>(prev * 31 + iter * 7 + i))
            << "rank " << rank << " iter " << iter;
      }
    }
  }, &plans);
  return first_error;
}

FaultPlan ParsePlan(const std::string& spec, int world, int rank) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(spec, world, rank, &plan, &error)) << error;
  return plan;
}

TEST(TransportFaults, CleanWorldRoundTripsFramedPayloads) {
  for (int world : {2, 3}) {
    const auto errors = RingRounds(world, 0, FaultPlan{}, 4);
    for (int r = 0; r < world; ++r) {
      EXPECT_TRUE(errors[static_cast<size_t>(r)].ok())
          << "world " << world << " rank " << r << ": "
          << errors[static_cast<size_t>(r)].message;
    }
  }
}

TEST(TransportFaults, CorruptFrameSurfacesAsChecksumErrorAtReceiver) {
  const int faulty = 1;
  const auto errors = RingRounds(3, faulty, ParsePlan("corrupt:2", 3, faulty), 3);
  const TransportStatus& at_receiver =
      errors[static_cast<size_t>(NextRank(faulty, 3))];
  EXPECT_EQ(at_receiver.code, TransportError::kChecksum) << at_receiver.message;
  EXPECT_NE(at_receiver.message.find("corrupted in transit"), std::string::npos)
      << at_receiver.message;
}

TEST(TransportFaults, TruncatedFrameSurfacesAsSequenceErrorAtReceiver) {
  const int faulty = 1;
  const auto errors = RingRounds(3, faulty, ParsePlan("truncate:2", 3, faulty), 3);
  const TransportStatus& at_receiver =
      errors[static_cast<size_t>(NextRank(faulty, 3))];
  EXPECT_EQ(at_receiver.code, TransportError::kSequence) << at_receiver.message;
  EXPECT_NE(at_receiver.message.find("size mismatch"), std::string::npos)
      << at_receiver.message;
}

TEST(TransportFaults, ReplayedFrameSurfacesAsSequenceErrorAtReceiver) {
  // Iteration 1 is clean; at iteration 2 the frame goes out stamped with the
  // previous frame's sequence number and must be caught as a stale one.
  const int faulty = 1;
  const auto errors = RingRounds(3, faulty, ParsePlan("dup:2", 3, faulty), 3);
  const TransportStatus& at_receiver =
      errors[static_cast<size_t>(NextRank(faulty, 3))];
  EXPECT_EQ(at_receiver.code, TransportError::kSequence) << at_receiver.message;
  EXPECT_NE(at_receiver.message.find("sequence mismatch"), std::string::npos)
      << at_receiver.message;
}

TEST(TransportFaults, DelayIsTransientAndTheWorldStillCompletes) {
  FaultPlan plan = ParsePlan("delay:2", 3, 1);
  ASSERT_EQ(plan.events.size(), 1U);
  plan.events[0].delay_ms = 50;  // keep the suite fast
  const auto start = std::chrono::steady_clock::now();
  const auto errors = RingRounds(3, 1, plan, 3);
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(50))
      << "the armed delay never fired";
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(errors[static_cast<size_t>(r)].ok())
        << "rank " << r << ": " << errors[static_cast<size_t>(r)].message;
  }
}

TEST(TransportFaults, DroppedConnectionSurfacesTypedErrorsEverywhere) {
  const int faulty = 1;
  const auto errors = RingRounds(3, faulty, ParsePlan("drop:2", 3, faulty), 4);
  // The dropping rank reports the drop itself...
  EXPECT_EQ(errors[static_cast<size_t>(faulty)].code, TransportError::kPeerClosed)
      << errors[static_cast<size_t>(faulty)].message;
  EXPECT_NE(errors[static_cast<size_t>(faulty)].message.find("fault injection"),
            std::string::npos);
  // ...and every survivor unwinds with a typed error over the dead sockets
  // instead of hanging in its next collective.
  for (int r = 0; r < 3; ++r) {
    if (r == faulty) {
      continue;
    }
    const TransportStatus& st = errors[static_cast<size_t>(r)];
    EXPECT_FALSE(st.ok()) << "rank " << r << " never observed the drop";
    EXPECT_TRUE(st.code == TransportError::kPeerClosed ||
                st.code == TransportError::kAborted ||
                st.code == TransportError::kSequence)
        << "rank " << r << ": " << st.message;
  }
}

// A peer that disappears between collectives (clean socket close, no fault
// injected): Barrier, Broadcast and a ring step on the survivors must return
// typed errors, never hang.
TEST(TransportFaults, PeerExitFailsBarrierAndBroadcastWithTypedErrors) {
  for (int world : {2, 3}) {
    std::vector<std::vector<TransportStatus>> statuses(static_cast<size_t>(world));
    RunTcpWorld(world, [&](int rank, Transport& transport) {
      if (rank == world - 1) {
        // Dies "mid-run": fails its endpoint and closes its sockets without
        // participating further.
        transport.LocalAbort(TransportStatus::Error(
            TransportError::kPeerClosed, "test: rank exits early"));
        return;
      }
      std::vector<TransportStatus>& mine = statuses[static_cast<size_t>(rank)];
      mine.push_back(transport.Barrier());
      const uint32_t word = 0x5A5A5A5AU;
      std::vector<uint8_t> out;
      mine.push_back(transport.Broadcast(
          rank == 0 ? &word : nullptr, rank == 0 ? sizeof(word) : 0, &out));
      std::vector<uint8_t> send(16, static_cast<uint8_t>(rank));
      std::vector<uint8_t> recv(16);
      mine.push_back(transport.RingExchange(send.data(), 16, recv.data(), 16));
    });
    for (int r = 0; r + 1 < world; ++r) {
      const std::vector<TransportStatus>& mine = statuses[static_cast<size_t>(r)];
      ASSERT_EQ(mine.size(), 3U);
      for (size_t op = 0; op < mine.size(); ++op) {
        EXPECT_TRUE(mine[op].code == TransportError::kPeerClosed ||
                    mine[op].code == TransportError::kAborted)
            << "world " << world << " rank " << r << " collective " << op << ": "
            << (mine[op].ok() ? "ok" : mine[op].message);
      }
    }
  }
}

// After a checksum failure the endpoint is latched: every later collective
// returns the same first error instead of shipping more suspect frames.
TEST(TransportFaults, IntegrityFailureLatchesTheEndpoint) {
  std::vector<FaultPlan> plans(2);
  plans[0] = ParsePlan("corrupt:1", 2, 0);
  plans[0].BeginIteration(1);
  RunTcpWorld(2, [&](int rank, Transport& transport) {
    std::vector<uint8_t> buf(64, static_cast<uint8_t>(rank));
    std::vector<uint8_t> got(64);
    const TransportStatus st = transport.RingExchange(buf.data(), 64, got.data(), 64);
    if (rank != 1) {
      EXPECT_TRUE(st.ok()) << st.message;
      return;
    }
    ASSERT_EQ(st.code, TransportError::kChecksum) << st.message;
    std::vector<uint8_t> out;
    for (const TransportStatus& again :
         {transport.RingExchange(buf.data(), 64, got.data(), 64),
          transport.Barrier(), transport.Broadcast(nullptr, 0, &out)}) {
      EXPECT_EQ(again.code, TransportError::kChecksum);
      EXPECT_EQ(again.message, st.message);
    }
  }, &plans);
}

// Every TCP message is framed: asking for unframed TCP is a usage error.
TEST(TransportFaults, UnframedTcpIsRejected) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TcpTransportOptions opts;
  opts.frame_integrity = false;
  EXPECT_DEATH(MakeTcpTransport(opts), "unframed TCP wire path");
}

}  // namespace
}  // namespace egeria
