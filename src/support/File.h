//===- support/File.h - Whole-file reads and writes ------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the runtime, benches and tools write an exported document
/// (trace, metrics, spans, heap tree, stats dump, bench JSON) to
/// disk, and the one way the tools and the REPL read a whole file back.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_FILE_H
#define MPL_SUPPORT_FILE_H

#include <optional>
#include <string>
#include <string_view>

namespace mpl {

/// Replaces \p Path's contents with \p Text. Returns false when the file
/// cannot be opened, a write is short, or closing it fails: fclose flushes
/// the stdio buffer, so a full disk often first shows up there.
bool writeFile(const std::string &Path, std::string_view Text);

/// \p Path's whole contents, or nullopt when it cannot be opened or read.
std::optional<std::string> readFile(const std::string &Path);

} // namespace mpl

#endif // MPL_SUPPORT_FILE_H
