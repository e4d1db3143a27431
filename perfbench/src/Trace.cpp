//===- perfbench/src/Trace.cpp - Benchmark-side spans ---------------------===//
//
// Part of the mpl-em repository benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>

namespace pb {

namespace {
/// The spans this thread has open, innermost last, per log.
thread_local std::vector<std::pair<const SpanLog *, int>> OpenStack;
} // namespace

int SpanLog::begin(const std::string &Name, uint64_t ReqId, int Parent) {
  if (!Enabled)
    return -1;
  if (Parent == -2) {
    Parent = -1;
    for (auto It = OpenStack.rbegin(); It != OpenStack.rend(); ++It)
      if (It->first == this) {
        Parent = It->second;
        break;
      }
  }
  int Id;
  {
    std::lock_guard<std::mutex> G(Lock);
    Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, mpl::nowNs(), 0, Parent, ReqId});
  }
  OpenStack.push_back({this, Id});
  return Id;
}

void SpanLog::end(int Id) {
  if (!Enabled || Id < 0)
    return;
  int64_t Now = mpl::nowNs();
  {
    std::lock_guard<std::mutex> G(Lock);
    Spans[static_cast<size_t>(Id)].EndNs = Now;
  }
  for (auto It = OpenStack.rbegin(); It != OpenStack.rend(); ++It)
    if (It->first == this && It->second == Id) {
      OpenStack.erase(std::next(It).base());
      break;
    }
}

int SpanLog::add(const std::string &Name, int64_t StartNs, int64_t EndNs,
                 int Parent, uint64_t ReqId) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> G(Lock);
  Spans.push_back({Name, StartNs, EndNs, Parent, ReqId});
  return static_cast<int>(Spans.size()) - 1;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> G(Lock);
  return Spans;
}

int64_t selfTimeNs(int64_t Start, int64_t End,
                   std::vector<std::pair<int64_t, int64_t>> Children) {
  for (auto &C : Children) {
    C.first = std::clamp(C.first, Start, End);
    C.second = std::clamp(C.second, Start, End);
  }
  std::sort(Children.begin(), Children.end());
  int64_t Covered = 0, Reach = Start;
  for (const auto &C : Children) {
    int64_t From = std::max(C.first, Reach);
    if (C.second > From) {
      Covered += C.second - From;
      Reach = C.second;
    }
  }
  return (End - Start) - Covered;
}

std::map<std::string, double> SpanLog::selfSeconds() const {
  std::vector<Span> S = spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(S.size());
  for (const Span &X : S)
    if (X.Parent >= 0)
      Kids[static_cast<size_t>(X.Parent)].push_back({X.StartNs, X.EndNs});
  std::map<std::string, double> Out;
  for (size_t I = 0; I < S.size(); ++I)
    Out[S[I].Name] +=
        1e-9 * static_cast<double>(
                   selfTimeNs(S[I].StartNs, S[I].EndNs, std::move(Kids[I])));
  return Out;
}

std::map<std::string, double> SpanLog::totalSeconds() const {
  std::map<std::string, double> Out;
  for (const Span &X : spans())
    Out[X.Name] += 1e-9 * static_cast<double>(X.EndNs - X.StartNs);
  return Out;
}

std::map<std::string, int64_t> SpanLog::counts() const {
  std::map<std::string, int64_t> Out;
  for (const Span &X : spans())
    ++Out[X.Name];
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"perfbench-spans/1\":[");
  std::vector<Span> S = spans();
  for (size_t I = 0; I < S.size(); ++I)
    std::fprintf(F,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"req\":%llu}",
                 I ? "," : "", I, mpl::json::escape(S[I].Name).c_str(),
                 static_cast<long long>(S[I].StartNs),
                 static_cast<long long>(S[I].EndNs), S[I].Parent,
                 static_cast<unsigned long long>(S[I].ReqId));
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace pb
