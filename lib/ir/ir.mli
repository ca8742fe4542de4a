(** The source IR compiled by the SHIFT compiler.

    A small C-like imperative language: 64-bit integer scalars, byte
    arrays, explicit loads and stores, functions.  Guest programs (the
    attack suite, the SPEC-like kernels, the HTTP server and the runtime
    library itself) are written in this IR; the compiler lowers it to the
    simulated ISA and the SHIFT pass instruments the result.

    Variable semantics:
    - a {e scalar} local or parameter is register-allocated and denoted
      by [Var];
    - an {e array} local denotes (decays to) its stack address;
    - a global denotes its data-segment address;
    - memory is accessed only through explicit [Load]/[Store].

    There is no address-of on scalars; declare a 8-byte array when a
    value needs an address. *)

type width = W1 | W2 | W4 | W8

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr | Sar
  | Eq | Ne | Lt | Le | Gt | Ge
  | Ltu | Geu
  | Land | Lor  (** short-circuit *)

type unop = Neg | Lnot | Bnot

type expr =
  | Int of int64
  | Str of string     (** address of an interned NUL-terminated literal *)
  | Var of string     (** scalar value, or array/global address *)
  | Fnptr of string   (** code address of a function (a function pointer) *)
  | Load of width * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Icall of expr * expr list
      (** indirect call through a function-pointer value; a tainted
          pointer trips policy L3 at the control transfer *)

type stmt =
  | Assign of string * expr   (** scalar local/param only *)
  | Store of width * expr * expr  (** address, value *)
  | If of expr * block * block
  | While of expr * block
  | Return of expr option
  | Expr of expr
  | Break
  | Continue
  | Guard of expr * block
      (** The paper's §3.3.3 user-level violation handling: evaluate
          the expression and, when the resulting value carries a taint
          tag, branch ([chk.s]) to the out-of-line handler block.  When
          the handler falls through, execution resumes after the guard.
          Only the SHIFT modes can fire it (the tag is the NaT bit). *)

and block = stmt list

type local = { lname : string; array : int option }
(** [array = Some n]: an [n]-byte stack array; [None]: a scalar. *)

type datum =
  | Bytes of string     (** initialised bytes, NUL appended *)
  | Zeros of int
  | Words of int64 list

type global = { gname : string; datum : datum }

type func = {
  fname : string;
  params : string list;
  locals : local list;
  body : block;
}

type program = { globals : global list; funcs : func list }

val empty : program

val merge : program -> program -> program
(** Concatenate globals and functions (used to link the runtime
    library with application code). *)

val callees : program -> string list
(** Every name a [Call] in the program names, intrinsics included,
    sorted and without duplicates. *)

val find_func : program -> string -> func option

exception Invalid of string

val validate : externals:string list -> program -> unit
(** Well-formedness: no duplicate definitions, every variable reference
    resolves, assignments target scalars, [Break]/[Continue] appear
    inside loops, and every called function is defined in the program or
    listed in [externals] (compiler intrinsics).
    @raise Invalid with a message naming the offending construct. *)

val pp_program : Format.formatter -> program -> unit
(** C-like listing, for documentation and debugging. *)
