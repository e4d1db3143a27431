//===- net/Frame.cpp - Varint-framed wire protocol ------------------------===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Frame.h"

#include <cstring>

using namespace mpl;
using namespace mpl::net;

const char *net::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "OK";
  case Status::Shed:
    return "SHED";
  case Status::DeadlineExpired:
    return "DEADLINE_EXPIRED";
  case Status::Error:
    return "ERROR";
  case Status::Draining:
    return "DRAINING";
  }
  return "?";
}

void net::putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

DecodeStatus net::getVarint64(const uint8_t *P, size_t Len, uint64_t &V,
                              size_t &Used) {
  V = 0;
  int Shift = 0;
  for (size_t I = 0; I < Len; ++I) {
    if (Shift >= 64)
      return DecodeStatus::Malformed;
    uint8_t B = P[I];
    // Guard the final byte: at shift 63 only the low bit fits.
    if (Shift == 63 && (B & 0x7e) != 0)
      return DecodeStatus::Malformed;
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80)) {
      // Reject non-canonical zero continuation ("0x80 0x00" for 0): a
      // trailing zero byte that contributed nothing means the encoder is
      // broken or the stream is garbage.
      if (B == 0 && I > 0)
        return DecodeStatus::Malformed;
      Used = I + 1;
      return DecodeStatus::Ok;
    }
    Shift += 7;
  }
  return DecodeStatus::NeedMore;
}

DecodeStatus net::getVarint(const uint8_t *P, size_t Len, uint32_t &V,
                            size_t &Used) {
  uint64_t V64 = 0;
  size_t N = Len < static_cast<size_t>(MaxVarintBytes)
                 ? Len
                 : static_cast<size_t>(MaxVarintBytes);
  DecodeStatus S = getVarint64(P, N, V64, Used);
  if (S == DecodeStatus::NeedMore && Len >= static_cast<size_t>(MaxVarintBytes))
    return DecodeStatus::Malformed; // 5 continuation bytes: not a u32.
  if (S != DecodeStatus::Ok)
    return S;
  if (V64 > 0xffffffffull)
    return DecodeStatus::Malformed;
  V = static_cast<uint32_t>(V64);
  return DecodeStatus::Ok;
}

std::string net::encodeFrame(const std::string &Payload) {
  std::string Out;
  Out.reserve(Payload.size() + MaxVarintBytes);
  putVarint(Out, Payload.size());
  Out += Payload;
  return Out;
}

void FrameReader::feed(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Buf.insert(Buf.end(), P, P + Len);
}

DecodeStatus FrameReader::next(std::string &Payload) {
  if (Stuck != DecodeStatus::Ok)
    return Stuck;
  uint32_t FrameLen = 0;
  size_t Used = 0;
  DecodeStatus S = getVarint(Buf.data() + Off, Buf.size() - Off, FrameLen,
                             Used);
  if (S != DecodeStatus::Ok) {
    if (S != DecodeStatus::NeedMore)
      Stuck = S;
    return S;
  }
  if (FrameLen > MaxFrameBytes) {
    Stuck = DecodeStatus::Oversized;
    return Stuck;
  }
  if (Buf.size() - Off - Used < FrameLen)
    return DecodeStatus::NeedMore;
  Payload.assign(reinterpret_cast<const char *>(Buf.data() + Off + Used),
                 FrameLen);
  Off += Used + FrameLen;
  // Compact once the consumed prefix dominates (amortized O(1) per byte).
  if (Off > 4096 && Off * 2 > Buf.size()) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Off));
    Off = 0;
  }
  return DecodeStatus::Ok;
}

namespace {

void putBytes(std::string &Out, const std::string &B) {
  net::putVarint(Out, B.size());
  Out += B;
}

/// Cursor over a complete payload; any NeedMore inside it is Malformed.
struct Cursor {
  const uint8_t *P;
  size_t Len;
  size_t Pos = 0;

  bool u8(uint8_t &V) {
    if (Pos >= Len)
      return false;
    V = P[Pos++];
    return true;
  }
  bool varint32(uint32_t &V) {
    size_t Used = 0;
    if (net::getVarint(P + Pos, Len - Pos, V, Used) != DecodeStatus::Ok)
      return false;
    Pos += Used;
    return true;
  }
  bool varint64(uint64_t &V) {
    size_t Used = 0;
    if (net::getVarint64(P + Pos, Len - Pos, V, Used) != DecodeStatus::Ok)
      return false;
    Pos += Used;
    return true;
  }
  bool bytes(std::string &B) {
    uint32_t N = 0;
    if (!varint32(N) || Len - Pos < N)
      return false;
    B.assign(reinterpret_cast<const char *>(P + Pos), N);
    Pos += N;
    return true;
  }
  bool done() const { return Pos == Len; }
};

} // namespace

std::string net::encodeRequest(const Request &R) {
  std::string Out;
  Out.reserve(16 + R.Body.size());
  Out.push_back('Q');
  putVarint(Out, R.Id);
  Out.push_back(static_cast<char>(R.Kind));
  putVarint(Out, R.DeadlineMs);
  putBytes(Out, R.Body);
  return Out;
}

std::string net::encodeResponse(const Response &R) {
  std::string Out;
  Out.reserve(16 + R.Body.size());
  Out.push_back('S');
  putVarint(Out, R.Id);
  Out.push_back(static_cast<char>(R.St));
  putVarint(Out, R.RetryAfterMs);
  putBytes(Out, R.Body);
  return Out;
}

std::string net::encodeIntrospect(const Introspect &I) {
  std::string Out;
  Out.reserve(8 + I.Options.size());
  Out.push_back('I');
  putVarint(Out, I.Id);
  putBytes(Out, I.Options);
  return Out;
}

DecodeStatus net::decodeIntrospect(const std::string &Payload, Introspect &I) {
  Cursor C{reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size()};
  uint8_t Tag = 0;
  if (!C.u8(Tag) || Tag != 'I' || !C.varint64(I.Id) || !C.bytes(I.Options) ||
      !C.done())
    return DecodeStatus::Malformed;
  return DecodeStatus::Ok;
}

DecodeStatus net::decodeRequest(const std::string &Payload, Request &R) {
  Cursor C{reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size()};
  uint8_t Tag = 0, Kind = 0;
  if (!C.u8(Tag) || Tag != 'Q' || !C.varint64(R.Id) || !C.u8(Kind) ||
      Kind > static_cast<uint8_t>(RequestKind::Workload) ||
      !C.varint32(R.DeadlineMs) || !C.bytes(R.Body) || !C.done())
    return DecodeStatus::Malformed;
  R.Kind = static_cast<RequestKind>(Kind);
  return DecodeStatus::Ok;
}

DecodeStatus net::decodeResponse(const std::string &Payload, Response &R) {
  Cursor C{reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size()};
  uint8_t Tag = 0, St = 0;
  if (!C.u8(Tag) || Tag != 'S' || !C.varint64(R.Id) || !C.u8(St) ||
      St > static_cast<uint8_t>(Status::Draining) ||
      !C.varint32(R.RetryAfterMs) || !C.bytes(R.Body) || !C.done())
    return DecodeStatus::Malformed;
  R.St = static_cast<Status>(St);
  return DecodeStatus::Ok;
}
