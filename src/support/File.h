//===- support/File.h - Whole-file writes ----------------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the runtime, benches and tools write an exported document
/// (trace, metrics, profile, spans, heap tree, stats dump, bench JSON) to
/// disk.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_FILE_H
#define MPL_SUPPORT_FILE_H

#include <string>
#include <string_view>

namespace mpl {

/// Replaces \p Path's contents with \p Text. Returns false when the file
/// cannot be opened, a write is short, or closing it fails: fclose flushes
/// the stdio buffer, so a full disk often first shows up there.
bool writeFile(const std::string &Path, std::string_view Text);

} // namespace mpl

#endif // MPL_SUPPORT_FILE_H
