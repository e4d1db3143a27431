//===- bench/bench_fig_spacetime.cpp - Figure F3: space over time -----------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Regenerates the space-over-time figure for an entangled run: a sampler
// thread records total residency and outstanding pinned bytes while the
// dedup benchmark executes; the series is printed as (ms, residency,
// pinned) rows suitable for plotting. The paper's claim: pinned (entangled)
// space rises while siblings communicate and drops back at joins — the
// space cost of entanglement is transient and bounded.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "support/Cli.h"

#include <atomic>
#include <cstdio>
#include <thread>

using namespace mpl;
using namespace mpl::bench;

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  double Scale = C.getDouble("scale", 0.25);
  int64_t SampleUs = C.getInt("sample-us", 500);
  std::string JsonPath = C.getString("json", "");

  std::printf("== F3: residency and pinned bytes over time (dedup-ht, "
              "2 workers, scale=%.2f) ==\n",
              Scale);

  struct Sample {
    int64_t Ms;
    int64_t Residency;
    int64_t Pinned;
  };
  std::vector<Sample> Samples;
  std::atomic<bool> Done{false};

  StatRegistry::get().resetAll();
  int64_t Start = nowNs();
  std::thread Sampler([&] {
    StatRegistry &Reg = StatRegistry::get();
    while (!Done.load(std::memory_order_acquire)) {
      int64_t Pinned =
          Reg.valueOf("em.pinned.bytes") - Reg.valueOf("em.unpins.bytes");
      Samples.push_back({(nowNs() - Start) / 1'000'000,
                         rt::Runtime::residencyBytes(), Pinned});
      std::this_thread::sleep_for(std::chrono::microseconds(SampleUs));
    }
  });

  {
    rt::Config Cfg;
    Cfg.NumWorkers = 2;
    rt::Runtime R(Cfg);
    const int64_t NDedup =
        std::max<int64_t>(1024, static_cast<int64_t>(1'000'000 * Scale));
    int64_t Distinct = 0;
    R.run([&] {
      Local K(wl::randomInts(NDedup, NDedup / 4, 23));
      Distinct = wl::dedup(K.get(), 512);
    });
    std::printf("distinct keys: %lld\n", static_cast<long long>(Distinct));
  }
  Done.store(true, std::memory_order_release);
  Sampler.join();

  // Thin the series to at most ~60 printed rows.
  size_t Step = std::max<size_t>(1, Samples.size() / 60);
  Table T({"t(ms)", "residency", "pinned"});
  for (size_t I = 0; I < Samples.size(); I += Step)
    T.addRow({Table::fmtInt(Samples[I].Ms),
              Table::fmtBytes(Samples[I].Residency),
              Table::fmtBytes(Samples[I].Pinned)});
  T.print();

  int64_t FinalPinned = StatRegistry::get().valueOf("em.pinned.bytes") -
                        StatRegistry::get().valueOf("em.unpins.bytes");
  std::printf("\nfinal outstanding pinned bytes: %lld (joins release "
              "entanglement)\n",
              static_cast<long long>(FinalPinned));

  if (!JsonPath.empty()) {
    BenchJson J("fig_spacetime", Scale, /*Reps=*/1, /*WarmupReps=*/0);
    J.addMetaInt("sample_us", SampleUs);
    J.addMetaInt("final_pinned_bytes", FinalPinned);
    J.addCustomRow("dedup-ht", "spacetime-w2",
                   Samples.empty()
                       ? 0.0
                       : static_cast<double>(Samples.back().Ms) * 1e-3,
                   [&](json::Writer &W) {
                     W.key("samples").beginArray();
                     for (const auto &S : Samples)
                       W.beginObject()
                           .kv("ms", S.Ms)
                           .kv("residency", S.Residency)
                           .kv("pinned", S.Pinned)
                           .endObject();
                     W.endArray();
                   });
    if (!J.write(JsonPath))
      return 1;
  }
  return 0;
}
