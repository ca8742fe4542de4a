(** The SHIFT instrumentation pass (paper §4.2, Figure 5).

    Runs per compilation unit on the final instruction stream, after
    register allocation — the same position the paper's GCC phase
    occupies (between [pass_leaf_regs] and [sched2]).  Only instructions
    with provenance [Orig] are rewritten:

    - loads gain bitmap-consult code and a predicated taint of the
      destination register;
    - stores gain a bitmap read-modify-write and are converted to the
      spill form so a tainted source does not fault;
    - compares gain NaT-stripping relaxation code (or become taint-aware
      compares when that §6.3 enhancement is enabled);
    - each function entry regenerates the NaT source register with a
      speculative load from a faked invalid address (or nothing, when the
      set/clear-NaT enhancement is enabled);
    - [_start] additionally materialises the reserved constants (the
      implemented-bits mask and the scratch-slot/shadow-base address).

    The software-DBT mode instead rewrites {e every} instruction to
    maintain a register shadow-tag table in memory, LIFT-style. *)

(** {1 Options}

    Compiler-optimization ablations for the benchmark harness, the
    §4.4 NaT-source strategy and the §3.3.2 pointer policy.  They are
    inputs of a compile like its mode: {!default_options} is the
    optimized setting with the default pointer policy. *)

type nat_source_strategy =
  | Per_function  (** default: one speculative-load sequence per entry *)
  | Per_use       (** regenerate at every tainting site — the strategy
                      the paper measured at ~3X degradation *)

type pointer_policy =
  | Fault_on_tainted_pointer
      (** default: using a tainted address faults (policies L1/L2) *)
  | Propagate_pointer_taint
      (** strip the address tag before the access and fold it into the
          accessed data's tag instead: tainted pointers dereference
          legally, results stay tainted *)

type options = {
  relax_all_compares : bool;
      (** [true]: relax every compare instead of only those the static
          taint analysis cannot prove clean (default [false]) *)
  skip_save_restore : bool;
      (** [false]: also instrument the compiler's register
          save/restore spill/fill traffic (default [true] = skip it;
          the NaT bit rides in UNAT) *)
  nat_source_strategy : nat_source_strategy;  (** default [Per_function] *)
  pointer_policy : pointer_policy;  (** default [Fault_on_tainted_pointer] *)
}

val default_options : options

val instrument :
  mode:Mode.t ->
  options:options ->
  keep_taint_markers:bool ->
  scratch_addr:int64 ->
  is_start:bool ->
  Shift_isa.Program.item list ->
  Shift_isa.Program.item list
(** Rewrite one unit (the item list of a single function).

    [keep_taint_markers] only matters under [Mode.Uninstrumented]: the
    Orig-provenance [setnat]/[clrnat] taint markers (the [untaint]
    builtin, tainted-return sources) are normally dropped there, but a
    decoupled tag backend needs them kept in the stream as coprocessor
    directives — the machine then skips the actual NaT write, so no
    stray NaT can fault.

    Instructions the pass leaves alone come out as the same physical
    records that went in. *)

val support_units : mode:Mode.t -> Shift_isa.Program.item list
(** Extra units a mode needs (the software-DBT alert stub). *)

val invalid_address : int64
(** The faked non-canonical address used to conjure a NaT bit. *)
