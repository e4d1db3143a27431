//===- support/Table.cpp - Aligned text tables ----------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Table.h"

#include <cstdio>

using namespace mpl;

Table::Table(std::vector<std::string> Header) {
  Rows.push_back(std::move(Header));
}

void Table::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

std::string Table::fmtSec(double Seconds) {
  char Buf[64];
  if (Seconds < 1e-3)
    std::snprintf(Buf, sizeof(Buf), "%.1fus", Seconds * 1e6);
  else if (Seconds < 1.0)
    std::snprintf(Buf, sizeof(Buf), "%.2fms", Seconds * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.3fs", Seconds);
  return Buf;
}

std::string Table::fmtRatio(double Ratio) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2fx", Ratio);
  return Buf;
}

std::string Table::fmtBytes(int64_t Bytes) {
  char Buf[64];
  double B = static_cast<double>(Bytes);
  if (Bytes < (1 << 10))
    std::snprintf(Buf, sizeof(Buf), "%lldB", static_cast<long long>(Bytes));
  else if (Bytes < (1 << 20))
    std::snprintf(Buf, sizeof(Buf), "%.1fK", B / (1 << 10));
  else if (Bytes < (1 << 30))
    std::snprintf(Buf, sizeof(Buf), "%.1fM", B / (1 << 20));
  else
    std::snprintf(Buf, sizeof(Buf), "%.2fG", B / (1 << 30));
  return Buf;
}

std::string Table::fmtInt(int64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  return Buf;
}

std::string Table::render() const {
  std::vector<size_t> Widths;
  for (const auto &Row : Rows) {
    if (Widths.size() < Row.size())
      Widths.resize(Row.size(), 0);
    for (size_t I = 0; I < Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();
  }

  std::string Out;
  for (size_t R = 0; R < Rows.size(); ++R) {
    const auto &Row = Rows[R];
    for (size_t I = 0; I < Row.size(); ++I) {
      Out += Row[I];
      if (I + 1 < Row.size())
        Out.append(Widths[I] - Row[I].size() + 2, ' ');
    }
    Out += '\n';
    if (R == 0) {
      size_t Total = 0;
      for (size_t I = 0; I < Widths.size(); ++I)
        Total += Widths[I] + (I + 1 < Widths.size() ? 2 : 0);
      Out.append(Total, '-');
      Out += '\n';
    }
  }
  return Out;
}

void Table::print() const {
  std::string S = render();
  std::fwrite(S.data(), 1, S.size(), stdout);
  std::fflush(stdout);
}
