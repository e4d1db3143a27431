//===- examples/quickstart.cpp - First steps with mpl-em -------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// A tour of the public API: start a runtime, allocate functional data,
// fork parallel tasks with rt::par, mutate refs and arrays freely (the
// runtime manages any entanglement), trigger a collection, and read the
// entanglement/GC statistics.
//
// Build and run:
//   cmake --build build && ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Handles.h"
#include "core/Ops.h"
#include "core/Runtime.h"
#include "support/Stats.h"

#include <cstdio>

using namespace mpl;
using namespace mpl::ops;

int main() {
  // 1. Configure the runtime: workers, entanglement mode, GC policy.
  rt::Config Cfg;
  Cfg.NumWorkers = 4;
  Cfg.Mode = em::Mode::Manage; // The paper's full entanglement management.
  rt::Runtime R(Cfg);

  // A run that outgrows the memory limit (MPL_MEM_LIMIT_MB) unwinds out of
  // R.run with OutOfMemoryError; report it instead of aborting.
  try {
    R.run([] {
      // 2. Allocate functional data. Object references held across
      //    allocations live in rooted handles (Local).
      Local Numbers(newArray(1'000'000, boxInt(0)));
      rt::parFor(0, 1'000'000, 4096, [&](int64_t I) {
        arrSet(Numbers.get(), static_cast<uint32_t>(I), boxInt(I));
      });

      // 3. Fork-join parallelism: each branch gets its own heap, allocates
      //    and collects independently, and results merge at the join.
      auto [SumLow, SumHigh] = rt::par(
          [&] {
            int64_t S = 0;
            for (uint32_t I = 0; I < 500'000; ++I)
              S += unboxInt(arrGet(Numbers.get(), I));
            return boxInt(S);
          },
          [&] {
            int64_t S = 0;
            for (uint32_t I = 500'000; I < 1'000'000; ++I)
              S += unboxInt(arrGet(Numbers.get(), I));
            return boxInt(S);
          });
      std::printf("parallel sum: %lld\n",
                  static_cast<long long>(unboxInt(SumLow) + unboxInt(SumHigh)));

      // 4. Effects across concurrent tasks are allowed — this is what the
      //    paper enables. Sibling tasks communicate through a shared ref;
      //    the runtime pins the published object until the join.
      Local Mailbox(newRef(boxInt(0)));
      auto [Sent, Received] = rt::par(
          [&] {
            Local Msg(newRecord(0, {boxInt(42), boxInt(43)}));
            refSet(Mailbox.get(), Msg.slot()); // Publish (pins Msg).
            return unit();
          },
          [&] {
            // Poll for the sibling's message: an entangled read, detected
            // and managed by the read barrier.
            while (true) {
              Slot V = refGet(Mailbox.get());
              if (Object *Msg = Object::asPointer(V))
                return boxInt(unboxInt(recGet(Msg, 0)) +
                              unboxInt(recGet(Msg, 1)));
            }
          });
      (void)Sent;
      std::printf("message through entangled mailbox: %lld\n",
                  static_cast<long long>(unboxInt(Received)));

      // 5. Force a local collection and look at the statistics.
      rt::Runtime::current()->maybeCollect(/*Force=*/true);
    });
  } catch (const OutOfMemoryError &E) {
    std::printf("error: %s\n", E.what());
    return 1;
  }

  std::printf("\nruntime statistics:\n%s",
              StatRegistry::get().report().c_str());
  return 0;
}
