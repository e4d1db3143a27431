//===- perfbench/src/Ops.cpp - Seeded operations and reference answers ----===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
// Every operation's expected output comes from the baseline module
// (mpl::nat, plain C++ with no managed runtime) or a closed form, never
// from the runtime under test. Sizes are fixed per workload; the seed picks
// the contents (array values, keys, program parameters), so two seeds cost
// about the same and a run-to-run spread measures the machine, not the
// draw.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baseline/Native.h"
#include "core/Handles.h"
#include "core/Ops.h"
#include "pml/Compiler.h"
#include "pml/Parser.h"
#include "pml/Types.h"
#include "pml/Vm.h"
#include "support/Random.h"
#include "workloads/Collections.h"
#include "workloads/Entangled.h"
#include "workloads/Kernels.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

using namespace mpl;
using namespace mpl::ops;

namespace pb {

namespace {

using Host = std::shared_ptr<const std::vector<int64_t>>;

int64_t scaled(double Scale, int64_t N) {
  return std::max<int64_t>(
      16, static_cast<int64_t>(Scale * static_cast<double>(N)));
}

Host randomHost(int64_t N, int64_t Range, uint64_t Seed) {
  Rng G(Seed);
  auto V = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(N));
  for (int64_t &X : *V)
    X = static_cast<int64_t>(G.nextBounded(static_cast<uint64_t>(Range)));
  return V;
}

/// The program receives its input: a parallel copy of the host array into
/// the calling task's heap.
Object *load(const std::vector<int64_t> &V) {
  return wl::tabulate(static_cast<int64_t>(V.size()), [&](int64_t I) {
    return boxInt(V[static_cast<size_t>(I)]);
  });
}

/// Position-weighted checksum: sum of (i + 1) * V[i], wrapping.
uint64_t weightedSum(const std::vector<int64_t> &V) {
  uint64_t S = 0;
  for (size_t I = 0; I < V.size(); ++I)
    S += (I + 1) * static_cast<uint64_t>(V[I]);
  return S;
}

uint64_t weightedSum(Object *A) {
  uint64_t S = 0;
  for (uint32_t I = 0, N = arrLen(A); I < N; ++I)
    S += (uint64_t(I) + 1) * static_cast<uint64_t>(unboxInt(arrGet(A, I)));
  return S;
}

/// An operation whose whole body is one run computing a printable value.
template <typename Fn>
Op kernelOp(const std::string &Name, bool Disentangled, std::string Expected,
            Fn Body) {
  return {Name, Disentangled, std::move(Expected),
          [Name, Body](rt::Runtime &R, SpanLog &L, OpRun &Out) {
            std::string V;
            runOn(R, L, Out, [&] {
              SpanLog::Scope S(L, "wl." + Name);
              V = Body();
            });
            return V;
          }};
}

} // namespace

std::vector<Op> fjPureOps(uint64_t Seed, double Scale) {
  // Sizes put each kernel near a quarter of a one-worker pass, so no one
  // kernel's noise decides the pass time or the per-operation quantiles.
  const int FibN = Scale >= 1 ? 31 : 20;
  const int QueensN = Scale >= 1 ? 11 : 6;
  const int64_t SortN = scaled(Scale, 200'000);
  const int64_t ScanN = scaled(Scale, 1'000'000);

  std::vector<Op> Ops;
  // Fork-heavy: a fine grain makes the forks and heap joins the work.
  Ops.push_back(kernelOp("fib", true, std::to_string(nat::fib(FibN)),
                         [=] { return std::to_string(wl::fib(FibN, 12)); }));
  Ops.push_back(kernelOp("nqueens", true, std::to_string(nat::nqueens(QueensN)),
                         [=] { return std::to_string(wl::nqueens(QueensN)); }));

  // Allocation- and GC-heavy: out-of-place mergesort.
  Host Sort = randomHost(SortN, int64_t(1) << 40, hash64(Seed ^ 0x501));
  Ops.push_back(kernelOp(
      "msort", true, std::to_string(weightedSum(nat::sortIdiomatic(*Sort))),
      [Sort] {
        Local A(load(*Sort));
        Local S(wl::mergesortInts(A.get(), 4096));
        return std::to_string(weightedSum(S.get()));
      }));

  // An array kernel: tabulate the input into the heap, then a parallel
  // prefix sum; checked on its total and a stride of its prefixes.
  Host Scan = randomHost(ScanN, int64_t(1) << 20, hash64(Seed ^ 0x5ca));
  uint64_t Expect = 0;
  int64_t Prefix = 0;
  for (size_t I = 0; I < Scan->size(); ++I) {
    if (I % 1024 == 0)
      Expect += static_cast<uint64_t>(Prefix);
    Prefix += (*Scan)[I];
  }
  Expect += static_cast<uint64_t>(Prefix);
  Ops.push_back(kernelOp("scan", true, std::to_string(Expect), [Scan] {
    Local A(load(*Scan));
    Local S(wl::scanPlus(A.get()));
    Object *Out = Object::asPointer(recGet(S.get(), 0));
    uint64_t Sum = static_cast<uint64_t>(unboxInt(recGet(S.get(), 1)));
    for (uint32_t I = 0, N = arrLen(Out); I < N; I += 1024)
      Sum += static_cast<uint64_t>(unboxInt(arrGet(Out, I)));
    return std::to_string(Sum);
  }));
  return Ops;
}

std::vector<Op> fjEntangledOps(uint64_t Seed, double Scale) {
  const int64_t DedupN = scaled(Scale, 150'000);
  // The stream kernels take only a length; the seed nudges it so their
  // answers differ per seed at the same cost.
  const int64_t ChanN =
      scaled(Scale, 150'000) + int64_t(hash64(Seed ^ 0xc4) % 64);
  const int64_t ExchN =
      scaled(Scale, 100'000) + int64_t(hash64(Seed ^ 0xe8) % 64);

  std::vector<Op> Ops;
  Host Keys = randomHost(DedupN, DedupN / 4, hash64(Seed ^ 0xded));
  Ops.push_back(kernelOp("dedup", false,
                         std::to_string(nat::dedupIdiomatic(*Keys)), [Keys] {
                           Local A(load(*Keys));
                           return std::to_string(wl::dedup(A.get(), 512));
                         }));
  Ops.push_back(kernelOp("channel", false,
                         std::to_string(ChanN * (ChanN - 1) / 2), [=] {
                           return std::to_string(wl::channelPipeline(ChanN));
                         }));
  Ops.push_back(kernelOp("exchange", false, std::to_string(ExchN), [=] {
    return std::to_string(wl::exchange(ExchN));
  }));
  return Ops;
}

std::string runPml(rt::Runtime &R, SpanLog &L, OpRun &Out,
                   const std::string &Source) {
  std::vector<std::string> Errors;
  pml::Program Prog;
  pml::Ty *T = nullptr;
  int64_t T0 = nowNs();
  pml::ExprPtr Ast;
  {
    SpanLog::Scope S(L, "pml.parse");
    Ast = pml::parseProgram(Source, Errors);
  }
  // The checker owns the type terms, so it outlives the rendering below.
  pml::TypeChecker TC;
  if (Ast) {
    SpanLog::Scope S(L, "pml.infer");
    T = TC.infer(*Ast, Errors);
  }
  bool Compiled = false;
  if (T) {
    SpanLog::Scope S(L, "pml.compile");
    Compiled = pml::compile(*Ast, Prog, Errors);
  }
  Out.FrontendSec += 1e-9 * static_cast<double>(nowNs() - T0);
  if (!Compiled)
    throw std::runtime_error(Errors.empty() ? "pml front-end failed"
                                            : Errors.front());
  for (const pml::FnProto &F : Prog.Fns)
    Out.CodeOps += static_cast<int64_t>(F.Code.size());

  std::string Printed, Rendered, Error;
  runOn(R, L, Out, [&] {
    SpanLog::Scope S(L, "pml.vm");
    int64_t V0 = nowNs();
    pml::Vm M(Prog, &Printed);
    pml::Vm::Result Res = M.run();
    Out.VmSec += 1e-9 * static_cast<double>(nowNs() - V0);
    if (Res.Ok)
      Rendered = pml::renderValue(Res.Value, T);
    else
      Error = Res.Error.empty() ? "trap" : Res.Error;
  });
  if (!Error.empty())
    throw std::runtime_error("pml runtime error: " + Error);
  return Printed + Rendered + " : " + pml::TypeChecker::show(T);
}

namespace {

Op pmlOp(const std::string &Name, bool Disentangled, std::string Source,
         int64_t Printed) {
  return {Name, Disentangled, std::to_string(Printed) + "\n() : unit",
          [Source](rt::Runtime &R, SpanLog &L, OpRun &Out) {
            return runPml(R, L, Out, Source);
          }};
}

/// The mergesort program's input generator, mirrored natively.
std::vector<int64_t> lcgArray(int64_t N, int64_t Seed) {
  std::vector<int64_t> V(static_cast<size_t>(N));
  for (int64_t &X : V) {
    X = Seed % 100000;
    Seed = (Seed * 1103515245 + 12345) % 2147483647;
  }
  return V;
}

} // namespace

std::vector<Op> pmlOps(uint64_t Seed, double Scale) {
  const int FibN = Scale >= 1 ? 22 : 14;
  const int64_t SortN = scaled(Scale, 6'000);
  const int64_t SieveN =
      scaled(Scale, 100'000) + int64_t(hash64(Seed ^ 0x51) % 1000);
  const int64_t EffN = Scale >= 1 ? 1000 : 50;
  const int64_t Base = int64_t(hash64(Seed ^ 0xf1b) % 1000);
  const int64_t LcgSeed = 1 + int64_t(hash64(Seed ^ 0x1c9) % 2147483646);
  const int64_t EffA = 1 + int64_t(hash64(Seed ^ 0xa) % 9);
  const int64_t EffB = int64_t(hash64(Seed ^ 0xb) % 100);

  std::vector<Op> Ops;

  // Par-heavy: every call above the cutoff forks, so each level pays a
  // sub-VM per branch.
  Ops.push_back(pmlOp(
      "pml-fib", true,
      "fun fib n = if n < 2 then n else if n < 8 then fib (n - 1) + fib (n - 2)\n"
      "  else let val p = par (fib (n - 1), fib (n - 2)) in fst p + snd p end\n"
      "printInt (fib " + std::to_string(FibN) + " + " + std::to_string(Base) + ")",
      nat::fib(FibN) + Base));

  std::vector<int64_t> Sorted = nat::sortIdiomatic(lcgArray(SortN, LcgSeed));
  Ops.push_back(pmlOp(
      "pml-msort", true,
      "val n = " + std::to_string(SortN) + "\n"
      "fun fill a i seed = if i = length a then ()\n"
      "  else (set a i (seed % 100000);\n"
      "        fill a (i + 1) ((seed * 1103515245 + 12345) % 2147483647))\n"
      "fun copyRange src lo hi =\n"
      "  let val out = alloc (hi - lo) 0\n"
      "      fun go i = if i = hi then out else (set out (i - lo) (get src i); go (i + 1))\n"
      "  in go lo end\n"
      "fun merge l r =\n"
      "  let val out = alloc (length l + length r) 0\n"
      "      fun go i j k =\n"
      "        if i = length l then\n"
      "          (if j = length r then out else (set out k (get r j); go i (j + 1) (k + 1)))\n"
      "        else if j = length r then (set out k (get l i); go (i + 1) j (k + 1))\n"
      "        else if get l i <= get r j then (set out k (get l i); go (i + 1) j (k + 1))\n"
      "        else (set out k (get r j); go i (j + 1) (k + 1))\n"
      "  in go 0 0 0 end\n"
      "fun isort a =\n"
      "  let fun ins out i v =\n"
      "        if i > 0 andalso get out (i - 1) > v\n"
      "        then (set out i (get out (i - 1)); ins out (i - 1) v)\n"
      "        else set out i v\n"
      "      fun go i = if i = length a then a else (ins a i (get a i); go (i + 1))\n"
      "  in go 0 end\n"
      "fun msort a =\n"
      "  if length a < 64 then isort a\n"
      "  else\n"
      "    let val mid = length a / 2\n"
      "        val p = par (msort (copyRange a 0 mid), msort (copyRange a mid (length a)))\n"
      "    in merge (fst p) (snd p) end\n"
      "fun wsum a i acc = if i = length a then acc\n"
      "  else wsum a (i + 1) (acc + (i + 1) * get a i)\n"
      "val input = alloc n 0\n"
      "val u = fill input 0 " + std::to_string(LcgSeed) + "\n"
      "printInt (wsum (msort input) 0 0)",
      static_cast<int64_t>(weightedSum(Sorted))));

  Ops.push_back(pmlOp(
      "pml-sieve", true,
      "val n = " + std::to_string(SieveN) + "\n"
      "val composite = alloc (n + 1) false\n"
      "fun mark m p = if m > n then () else (set composite m true; mark (m + p) p)\n"
      "fun sieve p = if p * p > n then () else\n"
      "  ((if get composite p then () else mark (p * p) p); sieve (p + 1))\n"
      "fun count i acc = if i > n then acc else\n"
      "  count (i + 1) (if get composite i then acc else acc + 1)\n"
      "sieve 2;\nprintInt (count 2 0)",
      nat::primesCount(SieveN)));

  // Two handler stages over a generator: every element is captured and
  // resumed twice. Continuations pin their heap, so this one may pin.
  Ops.push_back(pmlOp(
      "pml-effects", false,
      "effect Yield\neffect Out\n"
      "val acc = alloc 1 0\n"
      "fun produce i = if i = " + std::to_string(EffN) +
          " then () else (perform Yield i; produce (i + 1))\n"
      "fun stage1 u = handle produce 0 with\n"
      "  | Yield v k => (perform Out (v * " + std::to_string(EffA) + " + " +
          std::to_string(EffB) + "); resume k ()) end\n"
      "fun sink u = handle stage1 () with\n"
      "  | Out v k => (set acc 0 (get acc 0 + v); resume k ()) end\n"
      "sink ();\nprintInt (get acc 0)",
      EffA * EffN * (EffN - 1) / 2 + EffB * EffN));
  return Ops;
}

//===----------------------------------------------------------------------===//
// Requests for the wire phase
//===----------------------------------------------------------------------===//

namespace {

// A loop without par: the executor already gives each request its own
// leaf heap, and sub-VM set-up per par branch would dominate a request
// this small (the pml programs cover par).
const char *const SumSqSrc =
    "fun go i hi acc = if i = hi then acc else go (i + 1) hi (acc + i * i)\n"
    "go 0 ";

/// Log-uniform draw between Lo and Hi at position U in [0, 1).
int64_t logUniform(int64_t Lo, int64_t Hi, double U) {
  return static_cast<int64_t>(std::llround(
      static_cast<double>(Lo) *
      std::pow(static_cast<double>(Hi) / static_cast<double>(Lo), U)));
}

} // namespace

std::vector<Request> makeRequests(size_t N, uint64_t Seed, double Scale) {
  Rng G(hash64(Seed ^ 0x5e7e));
  std::vector<Request> Rs(N);
  // Kinds cycle; within a kind, sizes are stratified: the j-th of M draws
  // sits at a random point of the j-th of M equal slices of [0, 1). The
  // size distribution is smooth and nearly the same for every seed, so
  // exact-sample quantiles repeat; the order is shuffled afterwards.
  const size_t M = (N + 3) / 4;
  for (size_t I = 0; I < N; ++I) {
    Request &R = Rs[I];
    double U = (static_cast<double>(I / 4) + G.nextDouble()) /
               static_cast<double>(M);
    R.Id = 1 + (G.next() & 0xffffffffull);
    switch (I % 4) {
    case 0:
      R.K = Request::Fib;
      R.Size = (Scale >= 1 ? 21 : 10) + static_cast<int64_t>(U * 6);
      R.Body = "fib " + std::to_string(R.Size);
      R.Expected = std::to_string(nat::fib(R.Size));
      break;
    case 1:
      R.K = Request::Primes;
      R.Size = logUniform(scaled(Scale, 70'000), scaled(Scale, 1'100'000), U);
      R.Body = "primes " + std::to_string(R.Size);
      R.Expected = std::to_string(nat::primesCount(R.Size));
      break;
    case 2: {
      R.K = Request::Sort;
      R.Size = logUniform(scaled(Scale, 5'000), scaled(Scale, 80'000), U);
      R.Body = "sort " + std::to_string(R.Size);
      int64_t Sum = 0;
      for (int64_t X : nat::randomInts(R.Size, 1 << 20, 0x5eedull + R.Id))
        Sum += X;
      R.Expected = std::to_string(Sum);
      break;
    }
    default: {
      R.K = Request::Pml;
      R.Size = logUniform(scaled(Scale, 2'000), scaled(Scale, 32'000), U);
      R.Body = SumSqSrc + std::to_string(R.Size) + " 0";
      int64_t Sum = 0;
      for (int64_t X = 0; X < R.Size; ++X)
        Sum += X * X;
      R.Expected = std::to_string(Sum) + " : int";
    }
    }
  }
  for (size_t I = N; I > 1; --I)
    std::swap(Rs[I - 1], Rs[G.nextBounded(I)]);
  return Rs;
}

} // namespace pb
