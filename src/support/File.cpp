//===- support/File.cpp - Whole-file reads and writes ---------------------===//
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

std::optional<std::string> mpl::readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return std::nullopt;
  std::string Text;
  char Buf[1 << 16];
  size_t N = 0;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    return std::nullopt;
  return Text;
}
