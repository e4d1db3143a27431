//===- tests/ops_test.cpp - Typed heap operation tests --------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

using namespace mpl;
using namespace mpl::ops;

namespace {
struct OpsFixture : ::testing::Test {
  rt::Runtime R{{.NumWorkers = 1}};

  template <typename Fn> void inTask(Fn &&F) {
    R.run(std::forward<Fn>(F));
  }
};
} // namespace

TEST_F(OpsFixture, IntBoxingRoundTripsExtremes) {
  constexpr int64_t Max62 = (int64_t(1) << 61) - 1;
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(42),
                    int64_t(-42), Max62, -Max62}) {
    Slot S = boxInt(V);
    EXPECT_TRUE(isInt(S));
    EXPECT_EQ(unboxInt(S), V);
    EXPECT_EQ(Object::asPointer(S), nullptr)
        << "tagged ints must never look like pointers";
  }
}

TEST_F(OpsFixture, BoolBoxing) {
  EXPECT_TRUE(unboxBool(boxBool(true)));
  EXPECT_FALSE(unboxBool(boxBool(false)));
  EXPECT_TRUE(isInt(unit()));
}

TEST_F(OpsFixture, RefLifecycle) {
  inTask([&] {
    Local Cell(newRef(boxInt(1)));
    EXPECT_EQ(Cell.get()->kind(), ObjKind::Ref);
    EXPECT_TRUE(Cell.get()->isMutable());
    EXPECT_EQ(unboxInt(refGet(Cell.get())), 1);
    refSet(Cell.get(), boxInt(2));
    EXPECT_EQ(unboxInt(refGet(Cell.get())), 2);
  });
}

TEST_F(OpsFixture, RefCasSemantics) {
  inTask([&] {
    Local Cell(newRef(boxInt(10)));
    EXPECT_TRUE(refCas(Cell.get(), boxInt(10), boxInt(11)));
    EXPECT_EQ(unboxInt(refGet(Cell.get())), 11);
    EXPECT_FALSE(refCas(Cell.get(), boxInt(10), boxInt(12)))
        << "CAS with stale expected value must fail";
    EXPECT_EQ(unboxInt(refGet(Cell.get())), 11);
  });
}

TEST_F(OpsFixture, ArrayLifecycleAndCas) {
  inTask([&] {
    Local A(newArray(16, boxInt(7)));
    EXPECT_EQ(arrLen(A.get()), 16u);
    for (uint32_t I = 0; I < 16; ++I)
      EXPECT_EQ(unboxInt(arrGet(A.get(), I)), 7);
    arrSet(A.get(), 3, boxInt(9));
    EXPECT_EQ(unboxInt(arrGet(A.get(), 3)), 9);
    EXPECT_TRUE(arrCas(A.get(), 3, boxInt(9), boxInt(10)));
    EXPECT_FALSE(arrCas(A.get(), 3, boxInt(9), boxInt(11)));
    EXPECT_EQ(unboxInt(arrGet(A.get(), 3)), 10);
  });
}

TEST_F(OpsFixture, EmptyArray) {
  inTask([&] {
    Local A(newArray(0, boxInt(0)));
    EXPECT_EQ(arrLen(A.get()), 0u);
  });
}

TEST_F(OpsFixture, RecordPtrMapMixedFields) {
  inTask([&] {
    Local Inner(newRef(boxInt(5)));
    Local Rec(newRecord(0b10, {boxInt(1), Inner.slot(), boxInt(3)}));
    EXPECT_FALSE(Rec.get()->isMutable());
    EXPECT_EQ(unboxInt(recGet(Rec.get(), 0)), 1);
    EXPECT_EQ(Object::asPointer(recGet(Rec.get(), 1)), Inner.get());
    EXPECT_EQ(unboxInt(recGet(Rec.get(), 2)), 3);
    // The raw fields must not be treated as pointers by the GC.
    EXPECT_TRUE(Rec.get()->slotHoldsPointer(1));
    EXPECT_FALSE(Rec.get()->slotHoldsPointer(0));
  });
}

TEST_F(OpsFixture, MutRecordRoundTrip) {
  inTask([&] {
    Local Rec(newMutRecord(0b1, {0}));
    Local Val(newRef(boxInt(6)));
    recSetMut(Rec.get(), 0, Val.slot());
    Object *Got = Object::asPointer(recGetMut(Rec.get(), 0));
    EXPECT_EQ(Got, Val.get());
  });
}

TEST_F(OpsFixture, StringRoundTrip) {
  inTask([&] {
    const char *Msg = "hello, hierarchical heaps";
    Local S(newString(Msg, std::strlen(Msg)));
    EXPECT_EQ(strLen(S.get()), std::strlen(Msg));
    EXPECT_EQ(std::memcmp(strBytes(S.get()), Msg, std::strlen(Msg)), 0);
  });
}

TEST_F(OpsFixture, EmptyString) {
  inTask([&] {
    Local S(newString("", 0));
    EXPECT_EQ(strLen(S.get()), 0u);
  });
}

TEST_F(OpsFixture, AllocationHelpersRootTheirArguments) {
  // The ops::new* helpers must survive a forced collection between
  // argument evaluation and use; we simulate by shrinking the GC budget
  // to near-zero so allocations collect almost every time.
  rt::Runtime *Prev = rt::Runtime::current();
  (void)Prev;
  inTask([&] {
    Local Inner(newRef(boxInt(123)));
    // Hammer allocations; every newRecord may collect and move Inner's
    // referent — the helper's internal rooting must keep the field valid.
    Local Keep(nullptr);
    for (int I = 0; I < 50000; ++I) {
      Object *Rec = newRecord(0b1, {Inner.slot()});
      if (I == 25000) {
        Keep.set(Rec); // Root BEFORE collecting (the handle discipline).
        rt::Runtime::current()->maybeCollect(/*Force=*/true);
      }
    }
    ASSERT_NE(Keep.get(), nullptr);
    Object *Field = Object::asPointer(recGet(Keep.get(), 0));
    ASSERT_NE(Field, nullptr);
    EXPECT_EQ(unboxInt(refGet(Field)), 123);
    EXPECT_EQ(Field, Inner.get()) << "handle and field must track together";
  });
}

TEST_F(OpsFixture, RootedBufTracksAcrossCollection) {
  inTask([&] {
    RootedBuf Buf;
    Local A(newRef(boxInt(1)));
    Buf.push(A.slot());
    Buf.push(boxInt(99));
    rt::Runtime::current()->maybeCollect(/*Force=*/true);
    // Slot 0 must have been updated if the ref moved.
    Object *Moved = Object::asPointer(Buf[0]);
    ASSERT_NE(Moved, nullptr);
    EXPECT_EQ(unboxInt(refGet(Moved)), 1);
    EXPECT_EQ(unboxInt(Buf[1]), 99);
  });
}

TEST_F(OpsFixture, LargeArrayAllocation) {
  inTask([&] {
    // Larger than half a chunk: takes the dedicated-chunk path.
    uint32_t N = (Chunk::SizeBytes / 8) * 2;
    Local A(newArray(N, boxInt(4)));
    EXPECT_EQ(arrLen(A.get()), N);
    EXPECT_EQ(unboxInt(arrGet(A.get(), 0)), 4);
    EXPECT_EQ(unboxInt(arrGet(A.get(), N - 1)), 4);
    rt::Runtime::current()->maybeCollect(/*Force=*/true);
    EXPECT_EQ(unboxInt(arrGet(A.get(), N / 2)), 4);
  });
}
