//===- examples/pml_repl.cpp - Run PML programs -----------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
// Compiles and runs PML (the reproduction's Parallel ML stand-in) on the
// entanglement-managed runtime. With no arguments it runs a built-in demo
// suite — including an *entangled* program that pre-paper MPL would
// reject. Pass a file path to run it, or -e "expr" for one-liners.
//
// Usage:
//   pml_repl                       # run the demo programs
//   pml_repl program.pml           # run a file
//   pml_repl -e "1 + 2"           # evaluate an expression
//   pml_repl -workers 4 file.pml   # choose the worker count
//   pml_repl -i                    # interactive session (line at a time)
//
// The interactive session holds one Runtime for its whole lifetime and
// adds colon commands; `:heaps` dumps the live heap-tree snapshot
// (obs::snapshotHeapTree) so the hierarchy can be inspected mid-session.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "obs/Profile.h"
#include "obs/Span.h"
#include "pml/Vm.h"
#include "support/Cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace mpl;

namespace {

struct Demo {
  const char *Title;
  const char *Source;
};

const Demo Demos[] = {
    {"parallel fib",
     "fun fib n = if n < 2 then n else\n"
     "  if n < 12 then fib (n-1) + fib (n-2)\n"
     "  else let val p = par (fib (n-1), fib (n-2)) in fst p + snd p end\n"
     "printInt (fib 24)"},

    {"parallel array sum",
     "val a = alloc 10000 1\n"
     "fun sum lo hi =\n"
     "  if hi - lo < 100 then\n"
     "    let fun go i acc = if i = hi then acc else go (i+1) (acc + get a i)\n"
     "    in go lo 0 end\n"
     "  else let val mid = (lo + hi) / 2\n"
     "       val p = par (sum lo mid, sum mid hi)\n"
     "       in fst p + snd p end\n"
     "printInt (sum 0 10000)"},

    {"effects across tasks (entangled; rejected by pre-paper MPL)",
     "val mailbox = ref (ref 0)\n"
     "val p = par (\n"
     "  (mailbox := ref 42; 0),\n"
     "  (let fun poll u =\n"
     "     let val inner = !mailbox in\n"
     "       if !inner = 42 then !inner else poll u end\n"
     "   in poll () end))\n"
     "printInt (snd p)"},

    {"sieve of Eratosthenes",
     "val n = 1000\n"
     "val composite = alloc (n + 1) false\n"
     "fun mark m p = if m > n then () else (set composite m true; "
     "mark (m + p) p)\n"
     "fun sieve p = if p * p > n then () else\n"
     "  ((if get composite p then () else mark (p * p) p); sieve (p + 1))\n"
     "fun count i acc = if i > n then acc else\n"
     "  count (i + 1) (if get composite i then acc else acc + 1)\n"
     "sieve 2;\n"
     "printInt (count 2 0)"},
};

bool evalLine(const std::string &Source) {
  std::string Output, Rendered, TypeStr;
  std::vector<std::string> Errors;
  if (pml::evalSource(Source, Output, Rendered, TypeStr, Errors)) {
    std::fwrite(Output.data(), 1, Output.size(), stdout);
    std::printf("val it : %s = %s\n", TypeStr.c_str(), Rendered.c_str());
    return true;
  }
  for (const std::string &E : Errors)
    std::printf("error: %s\n", E.c_str());
  return false;
}

int runOne(const std::string &Title, const std::string &Source,
           int Workers) {
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Profile = false;
  rt::Runtime R(Cfg);

  std::printf("--- %s ---\n", Title.c_str());
  int Rc = 0;
  R.run([&] {
    if (!evalLine(Source))
      Rc = 1;
  });
  return Rc;
}

int runInteractive(int Workers) {
  rt::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Profile = false;
  // One Runtime for the whole session (only one may exist at a time); its
  // constructor installs the heap-tree provider `:heaps` reads through.
  rt::Runtime R(Cfg);

  // Arm the causal span ledger and the entanglement profiler for the whole
  // session: every evaluated line is one run, so `:spans` reports the last
  // line's fork-join DAG while `:prof` accumulates sites across lines.
  obs::SpanLedger::get().enable();
  obs::Profiler::get().reset();
  obs::Profiler::get().enable();

  std::printf("pml interactive — :help for commands, :quit to leave\n");
  std::string Line;
  for (;;) {
    std::printf("pml> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, Line))
      break;
    if (Line == ":quit" || Line == ":q")
      break;
    if (Line == ":help") {
      std::printf("  :heaps        dump the live heap-tree snapshot (JSON)\n"
                  "  :spans        critical-path summary of the last run\n"
                  "  :prof         top-5 entanglement profile sites\n"
                  "  :quit, :q     leave the session\n"
                  "  anything else is evaluated as a complete PML program\n"
                  "  (one per line; bindings do not persist across lines)\n");
      continue;
    }
    if (Line == ":spans") {
      obs::SpanRunSummary Sum = obs::SpanLedger::get().lastRun();
      if (Sum.Tasks == 0) {
        std::printf("no run recorded yet — evaluate a program first\n");
        continue;
      }
      std::string S = Sum.summaryText();
      std::fwrite(S.data(), 1, S.size(), stdout);
      if (S.empty() || S.back() != '\n')
        std::fputc('\n', stdout);
      continue;
    }
    if (Line == ":prof") {
      std::vector<obs::SiteSnap> Sites = obs::Profiler::get().snapshot();
      if (Sites.empty()) {
        std::printf("no entanglement events recorded yet\n");
        continue;
      }
      std::sort(Sites.begin(), Sites.end(),
                [](const obs::SiteSnap &A, const obs::SiteSnap &B) {
                  if (A.Events != B.Events)
                    return A.Events > B.Events;
                  return A.Bytes > B.Bytes;
                });
      size_t N = std::min<size_t>(Sites.size(), 5);
      for (size_t I = 0; I < N; ++I)
        std::printf("  %-24s events=%lld bytes=%lld\n",
                    Sites[I].Name.c_str(),
                    static_cast<long long>(Sites[I].Events),
                    static_cast<long long>(Sites[I].Bytes));
      continue;
    }
    if (Line == ":heaps") {
      // Snapshot from inside run() so the session's root heap (and any
      // still-live children) are in the dump, not just the empty shell.
      R.run([] {
        std::string S = obs::snapshotHeapTree();
        std::fwrite(S.data(), 1, S.size(), stdout);
        if (S.empty() || S.back() != '\n')
          std::fputc('\n', stdout);
      });
      continue;
    }
    if (!Line.empty() && Line[0] == ':') {
      std::printf("unknown command '%s' (:help lists them)\n", Line.c_str());
      continue;
    }
    if (Line.empty())
      continue;
    R.run([&] { evalLine(Line); });
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C(Argc, Argv);
  int Workers = static_cast<int>(C.getInt("workers", 2));

  if (C.getBool("i"))
    return runInteractive(Workers);

  std::string Inline = C.getString("e", "");
  if (!Inline.empty())
    return runOne("expression", Inline, Workers);

  if (!C.positional().empty()) {
    const std::string &Path = C.positional()[0];
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return 1;
    }
    std::stringstream Ss;
    Ss << In.rdbuf();
    return runOne(Path, Ss.str(), Workers);
  }

  int Rc = 0;
  for (const Demo &D : Demos)
    Rc |= runOne(D.Title, D.Source, Workers);
  return Rc;
}
