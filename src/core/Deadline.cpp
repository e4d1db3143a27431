//===- core/Deadline.cpp - Request deadlines ------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Deadline.h"

#include "core/Runtime.h"
#include "support/Timer.h"

#include <string>

using namespace mpl;

DeadlineError::DeadlineError(int64_t OverrunNs)
    : std::runtime_error("deadline expired (overrun " +
                         std::to_string(OverrunNs) + "ns)"),
      Overrun(OverrunNs) {}

void rt::checkDeadline() {
  int64_t DL = Runtime::ctx()->DeadlineNs;
  if (DL == 0)
    return;
  int64_t Now = nowNs();
  if (Now >= DL)
    throw DeadlineError(Now - DL);
}

rt::ScopedDeadline::ScopedDeadline(int64_t DeadlineNs)
    : Ctx(Runtime::ctx()), Saved(Ctx->DeadlineNs) {
  Ctx->DeadlineNs = DeadlineNs;
}

rt::ScopedDeadline::~ScopedDeadline() { Ctx->DeadlineNs = Saved; }
