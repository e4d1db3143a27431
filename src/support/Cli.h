//===- support/Cli.h - Minimal command-line flag parsing -------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny flag parser for the bench and example binaries:
/// \code
///   mpl::Cli Cli(Argc, Argv);
///   int64_t N = Cli.getInt("n", 1000000);
///   bool Verbose = Cli.getBool("verbose");
/// \endcode
/// Flags are written as `-name value` or `-name=value`; bools as `-name`.
/// A bare flag followed by a non-flag word takes that word as its value,
/// so positional arguments go before bool flags.
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_CLI_H
#define MPL_SUPPORT_CLI_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mpl {

/// Parses argv into name/value pairs and answers typed lookups.
class Cli {
public:
  Cli(int Argc, char **Argv);

  int64_t getInt(const std::string &Name, int64_t Default) const;
  double getDouble(const std::string &Name, double Default) const;
  std::string getString(const std::string &Name,
                        const std::string &Default) const;
  bool getBool(const std::string &Name) const;

  /// Every value of a flag given more than once, in order (empty when
  /// the flag is absent).
  std::vector<std::string> getAll(const std::string &Name) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Every flag as given, (name, value) in order; a bare flag's value is
  /// empty. Lets a tool reject flags it does not know.
  const std::vector<std::pair<std::string, std::string>> &flags() const {
    return Flags;
  }

private:
  const std::string *find(const std::string &Name) const;

  std::vector<std::pair<std::string, std::string>> Flags;
  std::vector<std::string> Positional;
};

} // namespace mpl

#endif // MPL_SUPPORT_CLI_H
