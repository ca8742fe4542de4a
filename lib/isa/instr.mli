(** Instructions of the simulated IA-64-like ISA.

    The subset models what SHIFT needs (paper §2.2, §4.1):
    - speculative loads ([ld.s]) that defer exceptions into the target
      register's NaT bit instead of faulting;
    - speculation checks ([chk.s]) that branch to recovery code when a
      NaT bit reaches them;
    - spill/fill forms ([st.spill]/[ld.fill]) that move a register's NaT
      bit to and from the UNAT application register;
    - [tnat], which tests a register's NaT bit into two predicates;
    - ordinary ALU operations that propagate NaT bits OR-wise.

    It also models the three architectural enhancements the paper
    proposes in §6.3: [setnat], [clrnat] and the taint-aware compare
    ([Cmp] with [taint_aware = true]).  The baseline Itanium ISA does
    not have them; the compiler only emits them in enhanced modes. *)

type width = W1 | W2 | W4 | W8  (** memory access width, in bytes: 1/2/4/8 *)

val bytes_of_width : width -> int

type arith =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Andcm  (** [a AND (NOT b)] — used to clear bitmap bits *)
  | Shl | Shr  (** logical shifts *)
  | Sar        (** arithmetic right shift *)

type operand = R of Reg.t | Imm of int64

type op =
  | Nop
  | Movi of Reg.t * int64     (** load a 64-bit immediate; clears NaT *)
  | Mov of Reg.t * Reg.t      (** copy value and NaT bit *)
  | Arith of arith * Reg.t * Reg.t * operand
      (** [dst = src1 op operand]; NaT bits of register sources OR into
          the destination.  [xor r, r, r] and [sub r, r, r] clear it. *)
  | Cmp of {
      cond : Cond.t;
      pt : Pred.t;  (** set to the comparison outcome *)
      pf : Pred.t;  (** set to its complement *)
      src1 : Reg.t;
      src2 : operand;
      taint_aware : bool;
          (** Baseline ISA behaviour ([false]): a NaT in either source
              clears {e both} predicates (the behaviour SHIFT must relax
              around).  The §6.3 enhanced compare ([true]) ignores NaT
              bits and compares the values. *)
    }
  | Tnat of { pt : Pred.t; pf : Pred.t; src : Reg.t }
      (** [pt = NaT(src)], [pf = not NaT(src)] *)
  | Extr of { dst : Reg.t; src : Reg.t; pos : int; len : int }
      (** IA-64 bit-field extract: [dst = (src >> pos) & ((1 << len) - 1)];
          propagates the source's NaT bit. *)
  | Ld of { width : width; dst : Reg.t; addr : Reg.t; spec : bool; fill : bool }
      (** Load, zero-extended.  [spec]: a speculative load ([ld.s]) sets
          the target's NaT bit on an invalid address instead of faulting.
          [fill]: [ld8.fill] additionally restores the NaT bit from UNAT.
          A plain load clears the target's NaT bit. *)
  | St of { width : width; addr : Reg.t; src : Reg.t; spill : bool }
      (** Store.  A plain store of a register whose NaT bit is set raises
          a NaT-consumption fault; [st.spill] instead records the NaT bit
          in UNAT and stores the value. *)
  | Chk_s of { src : Reg.t; recovery : string }
      (** Branch to [recovery] if the register's NaT bit is set. *)
  | Lea of Reg.t * string
      (** Materialise the code address of a label (used for function
          pointers, e.g. GOT-style tables); clears NaT. *)
  | Br of string              (** unconditional (or predicated) branch *)
  | Br_reg of Reg.t           (** indirect branch; NaT address faults *)
  | Call of string
  | Call_reg of Reg.t         (** indirect call; NaT address faults *)
  | Ret
  | Fetchadd of { dst : Reg.t; addr : Reg.t; inc : Reg.t }
      (** IA-64 [fetchadd]: atomically [dst = mem64[addr]];
          [mem64[addr] += inc].  Atomic with respect to other harts
          (instructions never interleave mid-operation).  The result's
          NaT is clear; synchronisation variables are not tracked. *)
  | Setnat of Reg.t           (** enhanced ISA: set the NaT bit *)
  | Clrnat of Reg.t           (** enhanced ISA: clear the NaT bit *)
  | Syscall                   (** number in r15, arguments in r32.. *)
  | Halt                      (** stop; exit status in r8 *)

type t = { qp : Pred.t; op : op; prov : Prov.t }
(** An instruction qualified by predicate [qp] (p0 = always execute) and
    tagged with its provenance. *)

val mk : ?qp:Pred.t -> ?prov:Prov.t -> op -> t
(** [mk op] builds an instruction with default [qp = p0],
    [prov = Orig]. *)

val is_mem : op -> bool
(** Whether the operation uses a memory port (loads and stores). *)

val reads : op -> Reg.t list
(** Register sources (value or NaT consumed). *)

val writes : op -> Reg.t list
(** Register destinations. *)

val writes_preds : op -> Pred.t list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
