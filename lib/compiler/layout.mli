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

(** Mutable data-segment builder: bump-allocates globals and interned
    string literals, accumulating initialised chunks and a symbol
    table. *)
module Dataseg : sig
  type t

  val create : unit -> t
  val add_global : t -> Ir.global -> unit
  val intern_string : t -> string -> int64
  (** Address of a NUL-terminated copy of the literal (deduplicated).
      Literals are named [__str1], [__str2], ... in the order this
      segment first sees them, so a program's image does not depend on
      what else the process compiled before it. *)

  val symbol : t -> string -> int64
  (** @raise Not_found for an unknown symbol. *)

  val chunks : t -> (int64 * string) list
  (** Initialised data as (address, bytes) pairs. *)

  val symbols : t -> (string * int64) list
end
