(** Lowering from the IR to the simulated ISA (uninstrumented).

    Calling convention:
    - arguments in r16-r23, return value in r8, stack pointer r12;
    - scalar locals live in r40-r63 (overflow spills to the frame);
    - expression temporaries in r64-r120, stack-disciplined;
    - r121-r127, p6, p7 are reserved for the instrumentation pass;
    - r29/r30/r31 are the instrumentation's global constants.

    Every function is emitted as an independent unit starting with its
    entry label; the SHIFT pass then rewrites each unit.  All memory
    accesses are emitted as plain loads/stores; conversion of stores to
    [st.spill] is the instrumentation pass's job (paper Figure 5). *)

exception Codegen_error of string

val intrinsics : (string * (int * int)) list
(** Compiler intrinsics: IR function name -> (syscall number, arity). *)

val externals : string list
(** Intrinsic names, for {!Ir.validate}. *)

val gen_func :
  Layout.Dataseg.t ->
  Ir.func ->
  Shift_isa.Program.item list * (Shift_isa.Instr.t * string) list
(** Compile one function into an item list beginning with its label,
    plus every [movi] in it whose immediate is a data address, with the
    symbol it names, in emission order. *)

val gen_start : unit -> Shift_isa.Program.item list
(** The [_start] unit: set up the stack, call [main], halt. *)
