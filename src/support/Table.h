//===- support/Table.h - Aligned text tables for bench output -*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A column-aligned plain-text table printer. Every bench binary prints the
/// rows of the paper table it regenerates through this class so that
/// EXPERIMENTS.md can quote the output verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_TABLE_H
#define MPL_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace mpl {

/// Accumulates rows of string cells and renders them with aligned columns.
class Table {
public:
  explicit Table(std::vector<std::string> Header);

  void addRow(std::vector<std::string> Cells);

  /// Formats helpers for numeric cells.
  static std::string fmtSec(double Seconds);
  static std::string fmtRatio(double Ratio);
  static std::string fmtBytes(int64_t Bytes);
  static std::string fmtInt(int64_t V);

  /// Renders the table (header, separator, rows) as a string.
  std::string render() const;

  /// Renders and writes to stdout.
  void print() const;

private:
  std::vector<std::vector<std::string>> Rows;
};

} // namespace mpl

#endif // MPL_SUPPORT_TABLE_H
