(** Memory layout of compiled guest programs.

    Applications live in region 1 (data, heap, stack); region 0 is the
    tag space (paper §4.1); region 3 holds the register shadow table of
    the software-DBT baseline mode. *)

val data_base : int64
val heap_base : int64
val stack_top : int64
val shadow_base : int64
(** Base of the per-register shadow-tag table (software-DBT mode). *)

val scratch_symbol : string
(** Name of the 8-byte scratch slot used by NaT-stripping spill/fill
    sequences; every data segment contains it. *)

val is_reserved : string -> bool
(** Whether a data name belongs to the compiler: {!scratch_symbol} and
    the string-literal names [__str1], [__str2], ...  A program global
    may not use one. *)

(** Mutable data-segment builder: bump-allocates globals and interned
    string literals, accumulating initialised chunks and a symbol
    table. *)
module Dataseg : sig
  type t

  val create : unit -> t
  val add_global : t -> Ir.global -> unit
  val intern_string : t -> string -> string * int64
  (** Symbol and address of a NUL-terminated copy of the literal
      (deduplicated).  Literals are named [__str1], [__str2], ... in the
      order this segment first sees them, so a program's image does not
      depend on what else the process compiled before it. *)

  val literals : t -> string list
  (** The interned literals, in the order they were first seen.
      Interning them in this order into another segment reproduces
      their names. *)

  val symbol : t -> string -> int64
  (** The address the segment stores for the symbol: the same boxed
      value that its {!chunks} and {!symbols} carry.
      @raise Not_found for an unknown symbol. *)

  val chunks : t -> (int64 * string) list
  (** Initialised data as (address, bytes) pairs. *)

  val symbols : t -> (string * int64) list
end
