//===- net/Frame.h - Varint-framed wire protocol ---------------*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format of the request server, kept free of any socket code so
/// the codec is unit-testable byte-by-byte (tests/net_test.cpp feeds it
/// malformed varints, truncated frames and oversized lengths).
///
/// A connection is a stream of *frames*: a LEB128 varint payload length
/// followed by that many payload bytes. Lengths above MaxFrameBytes are a
/// protocol error (Oversized) — the receiver must drop the connection
/// rather than buffer unboundedly; a varint longer than 5 bytes (or one
/// that encodes > 32 bits) is Malformed.
///
/// Payloads are Request/Response messages, also varint-encoded:
///
///   Request    := 'Q' varint(Id) byte(Kind)   varint(DeadlineMs)   bytes(Body)
///   Response   := 'S' varint(Id) byte(Status) varint(RetryAfterMs) bytes(Body)
///   Introspect := 'I' varint(Id) bytes(Options)
///   bytes(B)   := varint(len(B)) B
///
/// Body semantics by kind: Pml = a pml program to evaluate; Workload =
/// "<name> <n>" naming a built-in kernel; Ping = ignored. Response body:
/// the rendered value / workload result on Ok, a human-readable reason
/// otherwise. RetryAfterMs is the server's backoff hint on Shed/Draining.
///
/// Introspect is the live stats frame (DESIGN.md §16): answered on the
/// connection thread from relaxed counter/gauge reads only — it never
/// enters the request queue, so it works at any pressure level and during
/// drain. Options is a space-separated list ("format=prom"); the reply is
/// a normal Response whose body is the mpl-stats/1 JSON snapshot (or
/// Prometheus text exposition with format=prom).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_NET_FRAME_H
#define MPL_NET_FRAME_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mpl {
namespace net {

/// Hard cap on one frame's payload; a length above it is a protocol error.
constexpr uint32_t MaxFrameBytes = uint32_t(1) << 20;

/// Varints are LEB128 over uint32 lengths: at most 5 bytes.
constexpr int MaxVarintBytes = 5;

enum class DecodeStatus : uint8_t {
  Ok,        ///< A complete item was decoded.
  NeedMore,  ///< The buffer ends mid-item; feed more bytes.
  Malformed, ///< The bytes cannot be a valid item; drop the connection.
  Oversized, ///< Declared length exceeds MaxFrameBytes; drop the connection.
};

//===----------------------------------------------------------------------===//
// Varints
//===----------------------------------------------------------------------===//

/// Appends the LEB128 encoding of \p V to \p Out.
void putVarint(std::string &Out, uint64_t V);

/// Decodes a varint from [\p P, \p End). On Ok, \p V holds the value and
/// \p Used the bytes consumed. Values above 32 bits are Malformed (the
/// protocol only carries lengths and small scalars... ids excepted, which
/// use putVarint64/getVarint64 below).
DecodeStatus getVarint(const uint8_t *P, size_t Len, uint32_t &V,
                       size_t &Used);

/// 64-bit variant (request ids). Up to 10 bytes.
DecodeStatus getVarint64(const uint8_t *P, size_t Len, uint64_t &V,
                         size_t &Used);

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

/// Wraps \p Payload in a length-prefixed frame.
std::string encodeFrame(const std::string &Payload);

/// Incremental frame extractor: feed() raw bytes as they arrive, then call
/// next() until it stops returning Ok. Malformed/Oversized are sticky —
/// the connection is unrecoverable past a framing error (the stream has no
/// resync marker, by design: cheap, and the client retries on a fresh
/// connection anyway).
class FrameReader {
public:
  void feed(const void *Data, size_t Len);

  /// Extracts the next complete payload into \p Payload.
  DecodeStatus next(std::string &Payload);

  /// Bytes buffered but not yet returned (tests).
  size_t pendingBytes() const { return Buf.size() - Off; }

private:
  std::vector<uint8_t> Buf;
  size_t Off = 0;
  DecodeStatus Stuck = DecodeStatus::Ok; ///< Sticky terminal status.
};

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

enum class RequestKind : uint8_t {
  Ping = 0,     ///< Liveness probe; body ignored.
  Pml = 1,      ///< Body is a pml program for pml::evalSource.
  Workload = 2, ///< Body is "<name> <n>" naming a built-in kernel.
};

enum class Status : uint8_t {
  Ok = 0,
  Shed = 1,            ///< Admission control refused the request.
  DeadlineExpired = 2, ///< The request's deadline fired mid-run.
  Error = 3,           ///< Evaluation failed (bad program, unknown kernel).
  Draining = 4,        ///< Server is draining; retry elsewhere/later.
};

const char *statusName(Status S);

struct Request {
  uint64_t Id = 0;
  RequestKind Kind = RequestKind::Ping;
  uint32_t DeadlineMs = 0; ///< 0 = no deadline.
  std::string Body;
};

struct Response {
  uint64_t Id = 0;
  Status St = Status::Ok;
  uint32_t RetryAfterMs = 0;
  std::string Body;
};

/// The live stats query ('I' payload). Options is free-form, parsed by the
/// server as space-separated key[=value] words; unknown options are
/// ignored (a newer client degrades gracefully against an older server).
struct Introspect {
  uint64_t Id = 0;
  std::string Options;
};

std::string encodeRequest(const Request &R);
std::string encodeResponse(const Response &R);
std::string encodeIntrospect(const Introspect &I);

/// Decode a full frame payload into a message. NeedMore from these means
/// the payload was internally truncated — for a *complete* frame that is a
/// Malformed connection, and both return Malformed in that case.
DecodeStatus decodeRequest(const std::string &Payload, Request &R);
DecodeStatus decodeResponse(const std::string &Payload, Response &R);
DecodeStatus decodeIntrospect(const std::string &Payload, Introspect &I);

} // namespace net
} // namespace mpl

#endif // MPL_NET_FRAME_H
