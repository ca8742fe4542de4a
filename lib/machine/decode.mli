(** Pre-decoded programs: the interpreter's fast-path representation.

    [Cpu.step] used to recompute, for every dynamic instruction, facts
    that only depend on the static instruction: operand lists (allocated
    as fresh lists by {!Shift_isa.Instr.reads}/[writes]), the latency
    class, the memory-port flag, the provenance index, and — for
    branches, calls, [lea] and [chk.s] — the label-table lookup of the
    target.  [of_program] computes all of that once per static
    instruction; the per-instruction {!info} records are what the hot
    loop and {!Pipeline.issue} consume.

    Decoding is pure bookkeeping: it never changes what an instruction
    does or costs, so cycle counts and faults are identical to the
    undecoded interpreter. *)

type info = {
  op : Shift_isa.Instr.op;
  qp : Shift_isa.Pred.t;       (** qualifying predicate *)
  prov_index : int;            (** dense {!Shift_isa.Prov.index} *)
  latency : int;               (** base latency class (cache misses add on top) *)
  is_mem : bool;               (** uses a memory port *)
  reads : Shift_isa.Reg.t array;
  writes : Shift_isa.Reg.t array;
  pred_writes : Shift_isa.Pred.t array;
  target : int;
      (** resolved label target of [Br]/[Call]/[Lea]/[Chk_s]; -1 when the
          instruction has no label operand *)
}

type t = info array
(** One record per instruction, indexed like [Program.code]. *)

val of_program : Shift_isa.Program.t -> t
(** Decode every instruction.  Assembly already checked all referenced
    labels, so target resolution cannot fail. *)
