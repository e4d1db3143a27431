//===- pml/jit/X64Emitter.h - Minimal x86-64 instruction encoder -*- C++ -*-===//
//
// Part of mpl-em (PLDI 2023 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small append-only x86-64 encoder for the pml template JIT. It covers
/// exactly the instruction forms the per-opcode templates in Jit.cpp need —
/// 64-bit moves between registers and [base + disp] / [base + index*8 +
/// disp] memory, the tagged-integer ALU subset, rel32 branches with
/// back-patched labels, and absolute-address calls through a scratch
/// register — nothing more. Encodings follow the Intel SDM; REX prefixes
/// are emitted whenever an extended register or a 64-bit operand size
/// requires one.
///
/// The emitter produces position-independent code except for movabs
/// immediates (helper and global addresses baked in by the compiler), which
/// is fine because a compiled function is published once at a fixed address
/// and never moved (see JitRuntime.h).
///
//===----------------------------------------------------------------------===//

#ifndef MPL_PML_JIT_X64EMITTER_H
#define MPL_PML_JIT_X64EMITTER_H

#include "support/Assert.h"

#include <cstdint>
#include <vector>

namespace mpl {
namespace jit {

/// Register numbers as encoded in ModRM/SIB (REX.B/R/X supply bit 3).
enum Reg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Condition codes (the low nibble of the 0F 8x / 0F 9x opcodes).
enum Cond : uint8_t {
  CcO = 0x0,
  CcNo = 0x1,
  CcB = 0x2,  ///< unsigned <
  CcAe = 0x3, ///< unsigned >=
  CcE = 0x4,
  CcNe = 0x5,
  CcBe = 0x6, ///< unsigned <=
  CcA = 0x7,  ///< unsigned >
  CcS = 0x8,
  CcNs = 0x9,
  CcL = 0xc, ///< signed <
  CcGe = 0xd,
  CcLe = 0xe,
  CcG = 0xf,
};

class X64Emitter {
public:
  /// A forward-referenceable code position. Jumps to an unbound label
  /// record a fixup; bind() patches them all. Destroying an emitter with
  /// referenced-but-unbound labels is a bug the compiler must not commit —
  /// finalize() checks.
  struct Label {
    int32_t Bound = -1;
    std::vector<uint32_t> Fixups; ///< Offsets of rel32 fields to patch.
  };

  size_t size() const { return Buf.size(); }
  const uint8_t *data() const { return Buf.data(); }

  void bind(Label &L) {
    MPL_CHECK(L.Bound < 0, "label bound twice");
    L.Bound = static_cast<int32_t>(Buf.size());
    for (uint32_t Pos : L.Fixups)
      patch32(Pos, L.Bound - (static_cast<int32_t>(Pos) + 4));
    PendingFixups -= static_cast<int>(L.Fixups.size());
    L.Fixups.clear();
  }

  bool bound(const Label &L) const { return L.Bound >= 0; }

  //===--------------------------------------------------------------------===//
  // Moves
  //===--------------------------------------------------------------------===//

  /// mov r64, r64
  void movRR(Reg D, Reg S) {
    rex(1, S, 0, D);
    b(0x89);
    modrm(3, S, D);
  }

  /// mov r32, r32 (zero-extends into the full register)
  void movRR32(Reg D, Reg S) {
    rexOpt(0, S, 0, D);
    b(0x89);
    modrm(3, S, D);
  }

  /// mov r64, imm — movabs when needed, sign-extended imm32 form when it
  /// fits, xor for zero.
  void movRI(Reg D, uint64_t Imm) {
    int64_t S = static_cast<int64_t>(Imm);
    if (S >= INT32_MIN && S <= INT32_MAX) {
      rex(1, 0, 0, D);
      b(0xc7);
      modrm(3, 0, D);
      d32(static_cast<uint32_t>(S));
      return;
    }
    rex(1, 0, 0, D);
    b(0xb8 + (D & 7));
    d64(Imm);
  }

  /// mov r32, imm32 (zero-extends)
  void movRI32(Reg D, uint32_t Imm) {
    rexOpt(0, 0, 0, D);
    b(0xb8 + (D & 7));
    d32(Imm);
  }

  /// mov r64, [base + disp]
  void loadRM(Reg D, Reg Base, int32_t Disp) {
    rex(1, D, 0, Base);
    b(0x8b);
    mem(D, Base, Disp);
  }

  /// mov r32, [base + disp] (zero-extends)
  void loadRM32(Reg D, Reg Base, int32_t Disp) {
    rexOpt(0, D, 0, Base);
    b(0x8b);
    mem(D, Base, Disp);
  }

  /// mov [base + disp], r64
  void storeMR(Reg Base, int32_t Disp, Reg S) {
    rex(1, S, 0, Base);
    b(0x89);
    mem(S, Base, Disp);
  }

  /// mov r64, [base + index*8 + disp]
  void loadRMIdx8(Reg D, Reg Base, Reg Index, int32_t Disp) {
    rex(1, D, Index, Base);
    b(0x8b);
    memIdx(D, Base, Index, 3, Disp);
  }

  /// mov [base + index*8 + disp], r64
  void storeMRIdx8(Reg Base, Reg Index, int32_t Disp, Reg S) {
    rex(1, S, Index, Base);
    b(0x89);
    memIdx(S, Base, Index, 3, Disp);
  }

  /// mov qword [base + index*8 + disp], imm32 (sign-extended)
  void storeMI32Idx8(Reg Base, Reg Index, int32_t Disp, int32_t Imm) {
    rex(1, 0, Index, Base);
    b(0xc7);
    memIdx(0, Base, Index, 3, Disp);
    d32(static_cast<uint32_t>(Imm));
  }

  /// lea r64, [base + disp]
  void lea(Reg D, Reg Base, int32_t Disp) {
    rex(1, D, 0, Base);
    b(0x8d);
    mem(D, Base, Disp);
  }

  /// lea r64, [base + index*1 + disp]
  void leaIdx1(Reg D, Reg Base, Reg Index, int32_t Disp) {
    rex(1, D, Index, Base);
    b(0x8d);
    memIdx(D, Base, Index, 0, Disp);
  }

  //===--------------------------------------------------------------------===//
  // ALU
  //===--------------------------------------------------------------------===//

  void subRR(Reg D, Reg S) { aluRR(0x29, D, S); }
  void cmpRR(Reg D, Reg S) { aluRR(0x39, D, S); }
  void testRR(Reg D, Reg S) { aluRR(0x85, D, S); }
  void orRR(Reg D, Reg S) { aluRR(0x09, D, S); }

  void addRI(Reg D, int32_t Imm) { aluRI(0, D, Imm); }
  void andRI(Reg D, int32_t Imm) { aluRI(4, D, Imm); }
  void subRI(Reg D, int32_t Imm) { aluRI(5, D, Imm); }
  void cmpRI(Reg D, int32_t Imm) { aluRI(7, D, Imm); }

  /// and r32, imm8/imm32 (zero-extends)
  void andRI32(Reg D, int32_t Imm) {
    rexOpt(0, 0, 0, D);
    if (Imm >= -128 && Imm <= 127) {
      b(0x83);
      modrm(3, 4, D);
      b(static_cast<uint8_t>(Imm));
    } else {
      b(0x81);
      modrm(3, 4, D);
      d32(static_cast<uint32_t>(Imm));
    }
  }

  /// cmp r32, imm (for 32-bit compares of small values)
  void cmpRI32(Reg D, int32_t Imm) {
    rexOpt(0, 0, 0, D);
    if (Imm >= -128 && Imm <= 127) {
      b(0x83);
      modrm(3, 7, D);
      b(static_cast<uint8_t>(Imm));
    } else {
      b(0x81);
      modrm(3, 7, D);
      d32(static_cast<uint32_t>(Imm));
    }
  }

  /// cmp qword [base + disp], imm32 (sign-extended)
  void cmpMI32q(Reg Base, int32_t Disp, int32_t Imm) {
    rex(1, 0, 0, Base);
    b(0x81);
    mem(7, Base, Disp);
    d32(static_cast<uint32_t>(Imm));
  }

  /// cmp byte [base + disp], imm8
  void cmpMI8(Reg Base, int32_t Disp, uint8_t Imm) {
    rexOpt(0, 0, 0, Base);
    b(0x80);
    mem(7, Base, Disp);
    b(Imm);
  }

  /// cmp dword [base + disp], r32
  void cmpMR32(Reg Base, int32_t Disp, Reg S) {
    rexOpt(0, S, 0, Base);
    b(0x39);
    mem(S, Base, Disp);
  }

  /// test byte [base + disp], imm8
  void testMI8(Reg Base, int32_t Disp, uint8_t Imm) {
    rexOpt(0, 0, 0, Base);
    b(0xf6);
    mem(0, Base, Disp);
    b(Imm);
  }

  /// test al/cl/dl/bl, imm8 (low-byte registers only — no REX-byte regs)
  void testR8I(Reg D, uint8_t Imm) {
    MPL_CHECK(D <= RBX, "testR8I limited to legacy low-byte registers");
    if (D == RAX) {
      b(0xa8);
      b(Imm);
      return;
    }
    b(0xf6);
    modrm(3, 0, D);
    b(Imm);
  }

  /// sar r64, imm8
  void sarRI(Reg D, uint8_t Imm) { shiftRI(7, D, Imm); }
  /// shr r64, imm8
  void shrRI(Reg D, uint8_t Imm) { shiftRI(5, D, Imm); }

  /// imul r64, r64 (D *= S)
  void imulRR(Reg D, Reg S) {
    rex(1, D, 0, S);
    b(0x0f);
    b(0xaf);
    modrm(3, D, S);
  }

  /// cqo (sign-extend rax into rdx:rax)
  void cqo() {
    b(0x48);
    b(0x99);
  }

  /// idiv r64 (rdx:rax / S -> rax quot, rdx rem)
  void idivR(Reg S) {
    rex(1, 0, 0, S);
    b(0xf7);
    modrm(3, 7, S);
  }

  /// inc r64 / dec r64
  void incR(Reg D) {
    rex(1, 0, 0, D);
    b(0xff);
    modrm(3, 0, D);
  }
  void decR(Reg D) {
    rex(1, 0, 0, D);
    b(0xff);
    modrm(3, 1, D);
  }
  /// dec r32
  void decR32(Reg D) {
    rexOpt(0, 0, 0, D);
    b(0xff);
    modrm(3, 1, D);
  }

  /// setcc on al/cl/dl/bl (no REX-byte registers needed by the templates)
  void setcc(Cond C, Reg D) {
    MPL_CHECK(D <= RBX, "setcc limited to legacy low-byte registers");
    b(0x0f);
    b(0x90 + C);
    modrm(3, 0, D);
  }

  /// movzx r32, r8 (al/cl/dl/bl)
  void movzxR8(Reg D, Reg S) {
    MPL_CHECK(S <= RBX, "movzxR8 limited to legacy low-byte registers");
    rexOpt(0, D, 0, S);
    b(0x0f);
    b(0xb6);
    modrm(3, D, S);
  }

  //===--------------------------------------------------------------------===//
  // Control flow
  //===--------------------------------------------------------------------===//

  void jcc(Cond C, Label &L) {
    b(0x0f);
    b(0x80 + C);
    rel32(L);
  }

  void jmp(Label &L) {
    b(0xe9);
    rel32(L);
  }

  void jmpR(Reg D) {
    rexOpt(0, 0, 0, D);
    b(0xff);
    modrm(3, 4, D);
  }

  void callR(Reg D) {
    rexOpt(0, 0, 0, D);
    b(0xff);
    modrm(3, 2, D);
  }

  void callL(Label &L) {
    b(0xe8);
    rel32(L);
  }

  void pushR(Reg D) {
    rexOpt(0, 0, 0, D);
    b(0x50 + (D & 7));
  }

  void popR(Reg D) {
    rexOpt(0, 0, 0, D);
    b(0x58 + (D & 7));
  }

  void ret() { b(0xc3); }
  void int3() { b(0xcc); }

  /// True when every referenced label was bound (call before publishing).
  bool finalize() const { return PendingFixups == 0; }

private:
  void b(uint8_t V) { Buf.push_back(V); }
  void d32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      b(static_cast<uint8_t>(V >> (8 * I)));
  }
  void d64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      b(static_cast<uint8_t>(V >> (8 * I)));
  }
  void patch32(uint32_t Pos, int32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf[Pos + static_cast<uint32_t>(I)] =
          static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I));
  }

  void rex(int W, int R, int X, int B2) {
    b(static_cast<uint8_t>(0x40 | (W << 3) | (((R >> 3) & 1) << 2) |
                           (((X >> 3) & 1) << 1) | ((B2 >> 3) & 1)));
  }
  /// REX only when an extended register forces it.
  void rexOpt(int W, int R, int X, int B2) {
    if (W || R >= 8 || X >= 8 || B2 >= 8)
      rex(W, R, X, B2);
  }

  void modrm(int Mod, int RegOp, int Rm) {
    b(static_cast<uint8_t>((Mod << 6) | ((RegOp & 7) << 3) | (Rm & 7)));
  }

  /// [base + disp] addressing for the /r or /digit field \p RegOp.
  void mem(int RegOp, Reg Base, int32_t Disp) {
    int B2 = Base & 7;
    bool NeedsSib = B2 == 4;             // rsp/r12 require a SIB byte.
    bool NoDisp0 = B2 == 5;              // rbp/r13 cannot use mod 00.
    int Mod = (Disp == 0 && !NoDisp0) ? 0 : (Disp >= -128 && Disp <= 127 ? 1 : 2);
    modrm(Mod, RegOp, NeedsSib ? 4 : B2);
    if (NeedsSib)
      b(0x24); // scale=0, index=none(100), base=rsp/r12
    if (Mod == 1)
      b(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      d32(static_cast<uint32_t>(Disp));
  }

  /// [base + index*2^scale + disp] addressing.
  void memIdx(int RegOp, Reg Base, Reg Index, int Scale, int32_t Disp) {
    MPL_CHECK((Index & 7) != 4 || Index >= 8,
              "rsp cannot be an index register");
    int B2 = Base & 7;
    bool NoDisp0 = B2 == 5; // rbp/r13 base needs an explicit disp.
    int Mod = (Disp == 0 && !NoDisp0) ? 0 : (Disp >= -128 && Disp <= 127 ? 1 : 2);
    modrm(Mod, RegOp, 4);
    b(static_cast<uint8_t>((Scale << 6) | ((Index & 7) << 3) | B2));
    if (Mod == 1)
      b(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      d32(static_cast<uint32_t>(Disp));
  }

  void aluRR(uint8_t Op, Reg D, Reg S) {
    rex(1, S, 0, D);
    b(Op);
    modrm(3, S, D);
  }

  void aluRI(int Digit, Reg D, int32_t Imm) {
    rex(1, 0, 0, D);
    if (Imm >= -128 && Imm <= 127) {
      b(0x83);
      modrm(3, Digit, D);
      b(static_cast<uint8_t>(Imm));
    } else {
      b(0x81);
      modrm(3, Digit, D);
      d32(static_cast<uint32_t>(Imm));
    }
  }

  void shiftRI(int Digit, Reg D, uint8_t Imm) {
    rex(1, 0, 0, D);
    if (Imm == 1) {
      b(0xd1);
      modrm(3, Digit, D);
    } else {
      b(0xc1);
      modrm(3, Digit, D);
      b(Imm);
    }
  }

  void rel32(Label &L) {
    if (L.Bound >= 0) {
      d32(static_cast<uint32_t>(L.Bound -
                                (static_cast<int32_t>(Buf.size()) + 4)));
      return;
    }
    L.Fixups.push_back(static_cast<uint32_t>(Buf.size()));
    ++PendingFixups; // Balanced when bind() resolves the label's fixups.
    d32(0);
  }

  std::vector<uint8_t> Buf;
  int PendingFixups = 0;
};

} // namespace jit
} // namespace mpl

#endif // MPL_PML_JIT_X64EMITTER_H
