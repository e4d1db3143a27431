//===- support/Json.h - Minimal JSON value, parser, writer -----*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON library: every document the runtime, benches
/// and tools emit is written through json::Writer, and the trace checker
/// (tools/GateLib.cpp), the gates and tests parse exported files back
/// with json::parse. Header-only, no dependencies beyond the STL; not a
/// general-purpose library (no \uXXXX surrogate pairs, numbers parse as
/// double).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_SUPPORT_JSON_H
#define MPL_SUPPORT_JSON_H

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mpl {
namespace json {

/// One parsed JSON value (tree-owned children).
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;

  bool BoolV = false;
  double NumV = 0;
  std::string StrV;
  std::vector<Value> Items;                       ///< Kind::Array
  std::vector<std::pair<std::string, Value>> Fields; ///< Kind::Object

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }

  /// Object field lookup; null when absent or not an object.
  const Value *field(const std::string &Name) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &F : Fields)
      if (F.first == Name)
        return &F.second;
    return nullptr;
  }
};

namespace detail {

/// Appends \p S to \p Out with the escapes a JSON string literal needs.
inline void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

} // namespace detail

/// Escapes \p S for embedding in a JSON string literal.
inline std::string escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  detail::appendEscaped(Out, S);
  return Out;
}

/// Streaming writer behind every exported document. It places the commas
/// and colons, escapes every key and string, writes integers exactly and
/// doubles in shortest round-trip form (a non-finite double becomes null).
/// newline() breaks the line before the next token, so a document keeps
/// one row, task, event or sample per line and committed baselines diff
/// row by row. It streams into one string rather than building a Value
/// tree: a Chrome trace holds ring capacity x threads events, and a tree
/// would multiply its memory.
class Writer {
public:
  Writer &beginObject() { return open('{'); }
  Writer &endObject() { return close('}'); }
  Writer &beginArray() { return open('['); }
  Writer &endArray() { return close(']'); }

  /// Writes an object key; the next call writes its value.
  Writer &key(std::string_view K) {
    token();
    quoted(K);
    Out += ':';
    return *this;
  }

  Writer &value(std::string_view S) {
    token();
    quoted(S);
    NeedComma = true;
    return *this;
  }
  Writer &value(const char *S) { return value(std::string_view(S)); }
  Writer &value(const std::string &S) { return value(std::string_view(S)); }
  Writer &value(bool B) { return literal(B ? "true" : "false"); }
  Writer &value(double D) {
    return std::isfinite(D) ? number(D) : literal("null");
  }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Writer &value(T V) {
    return number(V);
  }

  /// key(K).value(V).
  template <typename T> Writer &kv(std::string_view K, const T &V) {
    return key(K).value(V);
  }

  /// Breaks the line before the next token (after its comma), indenting
  /// the new line by \p Indent spaces.
  Writer &newline(int Indent = 0) {
    BreakIndent = Indent;
    return *this;
  }

  /// Hands over the document, with any pending line break written out.
  std::string take() {
    flushBreak();
    return std::move(Out);
  }

private:
  std::string Out;
  bool NeedComma = false;
  int BreakIndent = -1; ///< Pending newline() indent; -1 = none.

  void flushBreak() {
    if (BreakIndent < 0)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(BreakIndent), ' ');
    BreakIndent = -1;
  }
  void token() {
    if (NeedComma)
      Out += ',';
    NeedComma = false;
    flushBreak();
  }
  void quoted(std::string_view S) {
    Out += '"';
    detail::appendEscaped(Out, S);
    Out += '"';
  }
  Writer &literal(std::string_view Text) {
    token();
    Out += Text;
    NeedComma = true;
    return *this;
  }
  template <typename T> Writer &number(T V) {
    char Buf[32];
    char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
    return literal(std::string_view(Buf, static_cast<size_t>(End - Buf)));
  }
  Writer &open(char C) {
    token();
    Out += C;
    return *this;
  }
  Writer &close(char C) {
    flushBreak();
    Out += C;
    NeedComma = true;
    return *this;
  }
};

namespace detail {

class Parser {
public:
  Parser(const char *Begin, const char *End) : P(Begin), End(End) {}

  bool parse(Value &Out, std::string &Err) {
    skipWs();
    if (!parseValue(Out, Err))
      return false;
    skipWs();
    if (P != End) {
      Err = "trailing garbage after top-level value";
      return false;
    }
    return true;
  }

private:
  const char *P;
  const char *End;

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool fail(std::string &Err, const std::string &What) {
    Err = What;
    return false;
  }

  bool literal(const char *Lit, std::string &Err) {
    for (; *Lit; ++Lit, ++P)
      if (P == End || *P != *Lit)
        return fail(Err, "bad literal");
    return true;
  }

  bool parseValue(Value &Out, std::string &Err) {
    if (P == End)
      return fail(Err, "unexpected end of input");
    switch (*P) {
    case '{':
      return parseObject(Out, Err);
    case '[':
      return parseArray(Out, Err);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.StrV, Err);
    case 't':
      Out.K = Value::Kind::Bool;
      Out.BoolV = true;
      return literal("true", Err);
    case 'f':
      Out.K = Value::Kind::Bool;
      Out.BoolV = false;
      return literal("false", Err);
    case 'n':
      Out.K = Value::Kind::Null;
      return literal("null", Err);
    default:
      return parseNumber(Out, Err);
    }
  }

  bool parseString(std::string &Out, std::string &Err) {
    ++P; // consume '"'
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return fail(Err, "unterminated escape");
        switch (*P) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (End - P < 5)
            return fail(Err, "truncated \\u escape");
          unsigned V = 0;
          for (int I = 1; I <= 4; ++I) {
            char C = P[I];
            V <<= 4;
            if (C >= '0' && C <= '9')
              V |= static_cast<unsigned>(C - '0');
            else if (C >= 'a' && C <= 'f')
              V |= static_cast<unsigned>(C - 'a' + 10);
            else if (C >= 'A' && C <= 'F')
              V |= static_cast<unsigned>(C - 'A' + 10);
            else
              return fail(Err, "bad \\u escape");
          }
          P += 4;
          // ASCII only (enough for our own exports); others become '?'.
          Out += V < 0x80 ? static_cast<char>(V) : '?';
          break;
        }
        default:
          return fail(Err, "unknown escape");
        }
        ++P;
      } else {
        Out += *P++;
      }
    }
    if (P == End)
      return fail(Err, "unterminated string");
    ++P; // consume closing '"'
    return true;
  }

  bool parseNumber(Value &Out, std::string &Err) {
    const char *Start = P;
    if (P != End && (*P == '-' || *P == '+'))
      ++P;
    bool Any = false;
    while (P != End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                        *P == '.' || *P == 'e' || *P == 'E' || *P == '-' ||
                        *P == '+')) {
      Any = true;
      ++P;
    }
    if (!Any)
      return fail(Err, "expected a value");
    Out.K = Value::Kind::Number;
    Out.NumV = std::strtod(std::string(Start, P).c_str(), nullptr);
    return true;
  }

  bool parseArray(Value &Out, std::string &Err) {
    Out.K = Value::Kind::Array;
    ++P; // consume '['
    skipWs();
    if (P != End && *P == ']') {
      ++P;
      return true;
    }
    while (true) {
      Value Item;
      skipWs();
      if (!parseValue(Item, Err))
        return false;
      Out.Items.push_back(std::move(Item));
      skipWs();
      if (P == End)
        return fail(Err, "unterminated array");
      if (*P == ',') {
        ++P;
        continue;
      }
      if (*P == ']') {
        ++P;
        return true;
      }
      return fail(Err, "expected ',' or ']' in array");
    }
  }

  bool parseObject(Value &Out, std::string &Err) {
    Out.K = Value::Kind::Object;
    ++P; // consume '{'
    skipWs();
    if (P != End && *P == '}') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (P == End || *P != '"')
        return fail(Err, "expected object key");
      std::string Key;
      if (!parseString(Key, Err))
        return false;
      skipWs();
      if (P == End || *P != ':')
        return fail(Err, "expected ':' after key");
      ++P;
      skipWs();
      Value V;
      if (!parseValue(V, Err))
        return false;
      Out.Fields.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (P == End)
        return fail(Err, "unterminated object");
      if (*P == ',') {
        ++P;
        continue;
      }
      if (*P == '}') {
        ++P;
        return true;
      }
      return fail(Err, "expected ',' or '}' in object");
    }
  }
};

} // namespace detail

/// Parses \p Text into \p Out; on failure returns false and sets \p Err.
inline bool parse(const std::string &Text, Value &Out, std::string &Err) {
  detail::Parser Pr(Text.data(), Text.data() + Text.size());
  return Pr.parse(Out, Err);
}

} // namespace json
} // namespace mpl

#endif // MPL_SUPPORT_JSON_H
