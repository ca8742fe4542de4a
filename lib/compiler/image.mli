(** A compiled, linked, instrumented executable image. *)

type t = {
  program : Shift_isa.Program.t;
  data : (int64 * string) list;     (** initialised data chunks *)
  symbols : (string * int64) list;  (** data symbols *)
  mode : Mode.t;
  func_sizes : (string * int) list;
      (** static instruction count per compilation unit (function),
          after instrumentation — the Table-3 measurement *)
  code : Shift_machine.Cpu.code option Atomic.t;
      (** derived: the program's decoded code and superblock tables,
          built by {!val-code} on first use.  Not part of the image's
          content — snapshots never write it, and a decoded image starts
          with none. *)
}

val make :
  program:Shift_isa.Program.t ->
  data:(int64 * string) list ->
  symbols:(string * int64) list ->
  mode:Mode.t ->
  func_sizes:(string * int) list ->
  t
(** An image with no code built yet. *)

val code : t -> Shift_machine.Cpu.code
(** The image's code, built once and shared by every machine that runs
    the image, from any domain.  It lives as long as the image or a
    machine running it. *)

val code_size : t -> int
(** Total static instructions. *)

val size_of_funcs : t -> prefix:string -> int
(** Combined size of all units whose name starts with [prefix] (used to
    separate the runtime library, whose functions are prefixed, from
    application code). *)

val symbol : t -> string -> int64
(** @raise Not_found *)
