//===- support/Cli.cpp - Minimal command-line flag parsing ----------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include <cstdlib>
#include <cstring>

using namespace mpl;

Cli::Cli(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    while (*Arg == '-')
      ++Arg;
    std::string Name(Arg);
    std::string Value;
    size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
    } else if (I + 1 < Argc && Argv[I + 1][0] != '-') {
      Value = Argv[++I];
    }
    Flags.emplace_back(std::move(Name), std::move(Value));
  }
}

const std::string *Cli::find(const std::string &Name) const {
  for (const auto &KV : Flags)
    if (KV.first == Name)
      return &KV.second;
  return nullptr;
}

int64_t Cli::getInt(const std::string &Name, int64_t Default) const {
  const std::string *V = find(Name);
  return V && !V->empty() ? std::strtoll(V->c_str(), nullptr, 10) : Default;
}

double Cli::getDouble(const std::string &Name, double Default) const {
  const std::string *V = find(Name);
  return V && !V->empty() ? std::strtod(V->c_str(), nullptr) : Default;
}

std::string Cli::getString(const std::string &Name,
                           const std::string &Default) const {
  const std::string *V = find(Name);
  return V && !V->empty() ? *V : Default;
}

bool Cli::getBool(const std::string &Name) const {
  const std::string *V = find(Name);
  if (!V)
    return false;
  return *V != "0" && *V != "false" && *V != "no";
}

std::vector<std::string> Cli::getAll(const std::string &Name) const {
  std::vector<std::string> Values;
  for (const auto &KV : Flags)
    if (KV.first == Name)
      Values.push_back(KV.second);
  return Values;
}
