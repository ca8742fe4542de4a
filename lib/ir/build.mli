(** Combinators for constructing IR programs concisely.

    Guest programs (runtime, attacks, workloads) are written with these;
    open {!Infix} locally for operator syntax. *)

val i : int -> Ir.expr
(** Integer literal. *)

val i64 : int64 -> Ir.expr
val str : string -> Ir.expr
val v : string -> Ir.expr

val load8 : Ir.expr -> Ir.expr
(** 1-byte load ([u8]). *)

val load64 : Ir.expr -> Ir.expr
(** 8-byte load ([u64]). *)

val store8 : Ir.expr -> Ir.expr -> Ir.stmt
val store64 : Ir.expr -> Ir.expr -> Ir.stmt

val call : string -> Ir.expr list -> Ir.expr
val ecall : string -> Ir.expr list -> Ir.stmt

val set : string -> Ir.expr -> Ir.stmt
val if_ : Ir.expr -> Ir.block -> Ir.block -> Ir.stmt
val when_ : Ir.expr -> Ir.block -> Ir.stmt
val while_ : Ir.expr -> Ir.block -> Ir.stmt

val for_up : string -> Ir.expr -> Ir.expr -> Ir.block -> Ir.block
(** [for_up x lo hi body] — [for (x = lo; x < hi; x++) body].  The body
    may use [Continue]/[Break] with C semantics {e except} that
    [Continue] skips the increment, so prefer plain loops when
    continuing. *)

val ret : Ir.expr -> Ir.stmt
val ret0 : Ir.stmt

val scalar : string -> Ir.local
val array : string -> int -> Ir.local

val func : string -> params:string list -> locals:Ir.local list -> Ir.block -> Ir.func

val global_bytes : string -> string -> Ir.global
val global_zeros : string -> int -> Ir.global
val global_words : string -> int64 list -> Ir.global

val fnptr : string -> Ir.expr
(** Function pointer (the code address of a named function). *)

val icall : Ir.expr -> Ir.expr list -> Ir.expr
(** Indirect call through a function-pointer value. *)

val guard : Ir.expr -> Ir.block -> Ir.stmt
(** [guard e handler] — the paper's user-level violation handling
    (§3.3.3): run [handler] when [e]'s value carries a taint tag. *)

(** Infix operators: arithmetic, comparison and logical connectives on
    expressions.  All operate on 64-bit values. *)
module Infix : sig
  val ( +: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( -: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( *: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( /: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( %: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( &: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( |: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( ^: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( <<: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( >>: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( ==: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( <>: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( <: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( <=: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( >: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( >=: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( &&: ) : Ir.expr -> Ir.expr -> Ir.expr
  val ( ||: ) : Ir.expr -> Ir.expr -> Ir.expr
end
