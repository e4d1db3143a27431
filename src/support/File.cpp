//===- support/File.cpp - Whole-file writes -------------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/File.h"

#include <cstdio>

bool mpl::writeFile(const std::string &Path, std::string_view Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}
