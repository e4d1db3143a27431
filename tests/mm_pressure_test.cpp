//===- tests/mm_pressure_test.cpp - Memory-pressure governor --------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// The pressure ladder, end to end: the chunk free-list cap and trim(),
// fault-injected allocation failure recovering via retry, hard limits
// surfacing a recoverable mpl::OutOfMemoryError through Runtime::run (the
// process survives), emergency collection rescuing a limit breach, monotone
// pressure transitions under load, and the pinned-bytes gauge returning to
// zero once the task tree has fully joined.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosSchedule.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "mm/Chunk.h"
#include "mm/MemoryGovernor.h"
#include "support/EmCounters.h"
#include "support/Stats.h"
#include "workloads/Entangled.h"

#include <gtest/gtest.h>

#include <vector>

using namespace mpl;
using namespace mpl::ops;

namespace {

int64_t stat(const char *Name) { return StatRegistry::get().valueOf(Name); }

constexpr int64_t ChunkBytes = static_cast<int64_t>(Chunk::SizeBytes);

/// Saves/restores the process-wide governor configuration around each test
/// (the governor is a singleton, like the pool it governs) and starts from
/// an empty free list so byte arithmetic is exact.
class MmPressureTest : public ::testing::Test {
protected:
  void SetUp() override {
    Saved = MemoryGovernor::get().config();
    StatRegistry::get().resetAll();
    ChunkPool::get().trim(0);
  }

  void TearDown() override {
    chaos::disable();
    MemoryGovernor::get().configure(Saved);
    ChunkPool::get().trim(0);
  }

  rt::Config runtimeCfg(int Workers = 1) {
    rt::Config C;
    C.NumWorkers = Workers;
    return C;
  }

  MemoryGovernor::Config Saved;
};

//===----------------------------------------------------------------------===//
// Free-list bounding (trim + cache cap)
//===----------------------------------------------------------------------===//

TEST_F(MmPressureTest, TrimReturnsFreeListToOs) {
  std::vector<Chunk *> Cs;
  for (int I = 0; I < 16; ++I)
    Cs.push_back(ChunkPool::get().acquire());
  for (Chunk *C : Cs)
    ChunkPool::get().release(C);
  EXPECT_EQ(ChunkPool::get().freeListBytes(), 16 * ChunkBytes);

  int64_t Trimmed = ChunkPool::get().trim(4 * Chunk::SizeBytes);
  EXPECT_EQ(Trimmed, 12 * ChunkBytes);
  EXPECT_EQ(ChunkPool::get().freeListBytes(), 4 * ChunkBytes);
  EXPECT_EQ(stat("mm.chunks.trimmed"), 12);

  EXPECT_EQ(ChunkPool::get().trim(0), 4 * ChunkBytes);
  EXPECT_EQ(ChunkPool::get().freeListBytes(), 0);
}

TEST_F(MmPressureTest, CacheCapBoundsFreeList) {
  MemoryGovernor::Config C = Saved;
  C.ChunkCacheBytes = 4 * ChunkBytes;
  MemoryGovernor::get().configure(C);

  std::vector<Chunk *> Cs;
  for (int I = 0; I < 16; ++I)
    Cs.push_back(ChunkPool::get().acquire());
  for (Chunk *Ch : Cs)
    ChunkPool::get().release(Ch);

  // Only the cap's worth stays cached; the rest went straight to the OS.
  EXPECT_EQ(ChunkPool::get().freeListBytes(), 4 * ChunkBytes);
  EXPECT_EQ(stat("mm.chunks.trimmed"), 12);
}

//===----------------------------------------------------------------------===//
// Fault-injected allocation failure (chaos::Fault::FailChunkAlloc)
//===----------------------------------------------------------------------===//

TEST_F(MmPressureTest, FaultInjectedAllocFailureRecoversByRetry) {
  chaos::Config CC;
  CC.Seed = 42;
  CC.InjectFault = chaos::Fault::FailChunkAlloc;
  CC.FaultEveryN = 2; // Every other attempt fails; the retry succeeds.
  chaos::enable(CC);

  std::vector<Chunk *> Cs;
  for (int I = 0; I < 32; ++I) {
    Chunk *Ch = nullptr;
    EXPECT_NO_THROW(Ch = ChunkPool::get().acquire());
    ASSERT_NE(Ch, nullptr);
    Cs.push_back(Ch);
  }
  int64_t Injected = chaos::totals().FaultsInjected;
  chaos::disable();
  for (Chunk *Ch : Cs)
    ChunkPool::get().release(Ch);

  EXPECT_GT(Injected, 0) << "the fault must actually have fired";
  EXPECT_GT(stat("mm.alloc.retries"), 0)
      << "failed attempts must go through the recovery ladder";
  EXPECT_EQ(stat("mm.oom.raised"), 0)
      << "every-other-attempt faults must never exhaust the ladder";
}

//===----------------------------------------------------------------------===//
// Hard limit: recoverable OutOfMemoryError, not abort
//===----------------------------------------------------------------------===//

TEST_F(MmPressureTest, HardLimitRaisesRecoverableOomWithDiagnostics) {
  const int64_t Base = ChunkPool::get().outstandingBytes();
  MemoryGovernor::Config C = Saved;
  C.LimitBytes = Base + 4 * ChunkBytes;
  C.RetryBackoffUs = 1; // Keep the doomed retries fast.
  MemoryGovernor::get().configure(C);

  std::vector<Chunk *> Cs;
  bool Caught = false;
  try {
    for (int I = 0; I < 8; ++I)
      Cs.push_back(ChunkPool::get().acquire());
  } catch (const OutOfMemoryError &E) {
    Caught = true;
    EXPECT_EQ(E.requestedBytes(), Chunk::SizeBytes);
    EXPECT_EQ(E.limitBytes(), C.LimitBytes);
    EXPECT_GE(E.outstandingBytes() + static_cast<int64_t>(E.requestedBytes()),
              C.LimitBytes);
    EXPECT_NE(std::string(E.what()).find("out of memory"), std::string::npos)
        << E.what();
  }
  EXPECT_TRUE(Caught) << "the 5th chunk must breach the 4-chunk limit";
  EXPECT_EQ(Cs.size(), 4u);
  EXPECT_EQ(MemoryGovernor::get().pressure(), Pressure::Critical);
  EXPECT_GT(stat("mm.oom.raised"), 0);

  // Recoverable: releasing memory lowers pressure and the pool serves
  // allocations again without any reconfiguration.
  for (Chunk *Ch : Cs)
    ChunkPool::get().release(Ch);
  ChunkPool::get().trim(0);
  EXPECT_EQ(MemoryGovernor::get().pressure(), Pressure::None);
  Chunk *Again = ChunkPool::get().acquire();
  ASSERT_NE(Again, nullptr);
  ChunkPool::get().release(Again);
}

TEST_F(MmPressureTest, OomPropagatesThroughRuntimeRunAndProcessSurvives) {
  const int64_t Base = ChunkPool::get().outstandingBytes();
  MemoryGovernor::Config C = Saved;
  C.LimitBytes = Base + (int64_t(1) << 20); // 1 MiB of headroom.
  C.RetryBackoffUs = 1;
  MemoryGovernor::get().configure(C);

  rt::Runtime R(runtimeCfg());
  // Live data exceeding the limit: emergency collection cannot shed it, so
  // the strand must fail with a recoverable error.
  EXPECT_THROW(R.run([&] {
    Local A(newArray(64 * 1024, boxInt(1)));
    Local B(newArray(64 * 1024, boxInt(2)));
    Local D(newArray(64 * 1024, boxInt(3)));
    Local E(newArray(64 * 1024, boxInt(4)));
  }),
               OutOfMemoryError);

  // The failed run's heaps were torn down; the Runtime remains usable for
  // a run that fits under the same limit.
  int64_t Got = 0;
  R.run([&] {
    Local Box(newRef(boxInt(9)));
    Got = unboxInt(refGet(Box.get()));
  });
  EXPECT_EQ(Got, 9);
}

//===----------------------------------------------------------------------===//
// Emergency collection rescues a limit breach
//===----------------------------------------------------------------------===//

TEST_F(MmPressureTest, EmergencyGcRescuesLimitBreach) {
  const int64_t Base = ChunkPool::get().outstandingBytes();
  MemoryGovernor::Config C = Saved;
  C.LimitBytes = Base + (int64_t(1) << 20); // 1 MiB of headroom.
  MemoryGovernor::get().configure(C);

  rt::Config RC = runtimeCfg();
  RC.GcMinBytes = int64_t(1) << 30; // The normal policy never collects...
  rt::Runtime R(RC);
  R.run([&] {
    // ...yet several MiB of pure garbage fit under a 1 MiB limit, because
    // the governor forces collections when admission fails.
    for (int64_t I = 0; I < 100000; ++I) {
      Object *O = newRecord(0, {boxInt(I), boxInt(I + 1)});
      (void)O;
    }
  });
  EXPECT_GT(stat("mm.emergency.gcs"), 0)
      << "only the governor could have collected here";
  EXPECT_EQ(stat("mm.oom.raised"), 0);
}

//===----------------------------------------------------------------------===//
// Pressure-level transitions
//===----------------------------------------------------------------------===//

TEST_F(MmPressureTest, PressureLevelsMonotoneUnderLoad) {
  const int64_t Base = ChunkPool::get().outstandingBytes();
  MemoryGovernor::Config C = Saved;
  C.LimitBytes = Base + 16 * ChunkBytes;
  C.SoftFrac = 0.5;
  MemoryGovernor::get().configure(C);
  EXPECT_EQ(MemoryGovernor::get().pressure(), Pressure::None);

  std::vector<Chunk *> Cs;
  Pressure Prev = Pressure::None;
  for (int I = 0; I < 15; ++I) {
    Cs.push_back(ChunkPool::get().acquire());
    Pressure Now = MemoryGovernor::get().pressure();
    EXPECT_GE(static_cast<int>(Now), static_cast<int>(Prev))
        << "pressure must not drop while residency only grows (chunk " << I
        << ")";
    Prev = Now;
  }
  EXPECT_GE(static_cast<int>(Prev), static_cast<int>(Pressure::Soft))
      << "15 of 16 chunks is past the 50% soft watermark";
  EXPECT_GT(stat("mm.pressure.transitions"), 0);

  // Scaled allocation budgets shrink as the ladder climbs.
  EXPECT_LT(MemoryGovernor::get().allocBudgetScale(), 1.0);

  for (Chunk *Ch : Cs)
    ChunkPool::get().release(Ch);
  EXPECT_EQ(MemoryGovernor::get().pressure(), Pressure::None)
      << "pressure decays when residency returns below the watermarks";
}

//===----------------------------------------------------------------------===//
// Pinned-bytes gauge
//===----------------------------------------------------------------------===//

TEST_F(MmPressureTest, PinnedBytesGaugeReturnsToZeroAfterJoins) {
  em::Counts.reset();
  rt::Runtime R(runtimeCfg(2));
  R.run([&] { EXPECT_EQ(wl::exchange(500), 500); });

  // The exchange workload entangles heavily, so the gauge must have moved;
  // a fully joined tree has released every pin.
  EXPECT_GT(stat("em.pinned.bytes"), 0);
  EXPECT_EQ(MemoryGovernor::get().pinnedBytes(), 0)
      << "every pin must be released once the task tree has joined";
}

} // namespace
